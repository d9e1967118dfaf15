// Package layercheck enforces the repo's import-boundary DAG. The solver
// is layered leaf-to-top as
//
//	stats/channel/topology/obs/control/cluster
//	  -> schedule/link -> pathmodel -> measures/des
//	  -> core -> spec/gen -> engine -> experiments/fleet
//	  -> root facade -> cmd / examples
//
// and every internal package declares its direct first-party imports in
// the allowedImports table below. Growing a new edge is a deliberate
// one-line diff here, not an accident in an import block. Three rules the
// numerical model depends on fall out of the table: the leaves import no
// first-party package, internal/core never sees internal/obs or
// internal/engine (solver purity: core results must be cacheable without
// observability side effects), and nothing outside cmd imports cmd.
package layercheck

import (
	"strconv"
	"strings"

	"wirelesshart/tools/lint/analysis"
)

// Analyzer is the layercheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "layercheck",
	Doc: "enforce the module's import-boundary DAG: internal packages may only " +
		"import the first-party packages registered for their layer, and cmd " +
		"packages are never imported from outside cmd",
	Run: run,
}

// allowedImports is the layering DAG: for each internal package (path
// relative to the module root) the complete set of first-party packages it
// may import directly. A package absent from this table is not allowed to
// exist under internal/ until it registers its layer here.
var allowedImports = map[string][]string{
	// Leaves: pure math, pure data, no first-party imports.
	"internal/stats":    {},
	"internal/channel":  {},
	"internal/topology": {},
	"internal/obs":      {},
	"internal/control":  {},
	// cluster is the distribution leaf: consistent-hash ring, peer HTTP
	// client and the snapshot codec. It moves canonical keys and opaque
	// JSON, never engine types, so it needs no first-party imports — and
	// must never grow one upward into the engine.
	"internal/cluster": {},

	"internal/schedule": {"internal/topology"},
	"internal/link":     {"internal/channel"},

	"internal/pathmodel": {"internal/link"},

	"internal/measures": {"internal/pathmodel", "internal/schedule", "internal/stats"},
	"internal/des":      {"internal/channel", "internal/link", "internal/pathmodel", "internal/schedule", "internal/stats", "internal/topology"},

	"internal/core": {"internal/channel", "internal/link", "internal/measures", "internal/pathmodel", "internal/schedule", "internal/stats", "internal/topology"},
	"internal/spec": {"internal/channel", "internal/core", "internal/des", "internal/link", "internal/schedule", "internal/topology"},

	"internal/engine": {"internal/cluster", "internal/core", "internal/link", "internal/measures", "internal/obs", "internal/pathmodel", "internal/spec"},

	// The topology generator sits beside spec: it emits specs and realizes
	// them, but never sees the engine — fleets own orchestration.
	"internal/gen": {"internal/link", "internal/schedule", "internal/spec", "internal/topology"},

	// Fleet evaluation drives generated populations through the engine. It
	// may see core result types, spec (to clone failure-sweep scenarios)
	// and the obs registry, but never cmd.
	"internal/fleet": {"internal/core", "internal/engine", "internal/gen", "internal/obs", "internal/spec", "internal/stats"},

	// The paper's experiments realize their networks through spec, the
	// one scenario-to-analyzer path the engine, facade and CLIs share.
	"internal/experiments": {
		"internal/channel", "internal/control", "internal/core", "internal/des",
		"internal/link", "internal/measures", "internal/pathmodel", "internal/schedule",
		"internal/spec", "internal/stats", "internal/topology",
	},
}

// denyReasons adds the invariant behind the most load-bearing forbidden
// edges to the diagnostic.
var denyReasons = map[[2]string]string{
	{"internal/core", "internal/obs"}:    "core must stay observability-free; inject tracing through core.Tracer instead",
	{"internal/core", "internal/engine"}: "core is below the engine; move shared code down, not the import up",
}

func run(pass *analysis.Pass) error {
	module := pass.Module
	if module == "" {
		return nil
	}
	pkgPath := pass.Pkg.Path()
	rel := relPath(module, pkgPath)
	if rel == "" && pkgPath != module {
		return nil // foreign package; nothing to enforce
	}

	var allowed map[string]bool
	registered := false
	if rules, ok := allowedImports[rel]; ok {
		registered = true
		allowed = make(map[string]bool, len(rules))
		for _, r := range rules {
			allowed[r] = true
		}
	}

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			impRel := relPath(module, path)
			if impRel == "" && path != module {
				continue // stdlib or third-party import
			}

			// Universal rule: cmd packages are programs (plus their
			// private helpers); only code under the same cmd subtree may
			// import them.
			if inTree(impRel, "cmd") && !inTree(rel, "cmd") {
				pass.Reportf(imp.Pos(), "import of %s: cmd packages must not be imported from outside cmd", path)
				continue
			}

			if !strings.HasPrefix(rel, "internal/") {
				continue // root facade, cmd and examples may use any layer
			}
			if !registered {
				pass.Reportf(imp.Pos(),
					"package %s is not registered in the layercheck DAG; add it to allowedImports with its permitted imports", pkgPath)
				return nil
			}
			if allowed[impRel] {
				continue
			}
			msg := "import of " + path + ": not a registered edge of the " + rel + " layer"
			if reason, ok := denyReasons[[2]string{rel, impRel}]; ok {
				msg += " (" + reason + ")"
			}
			pass.Reportf(imp.Pos(), "%s", msg)
		}
	}
	return nil
}

// relPath returns path relative to the module root ("" when path is the
// module root itself or lies outside the module).
func relPath(module, path string) string {
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest
	}
	return ""
}

// inTree reports whether rel is tree or lies under tree/.
func inTree(rel, tree string) bool {
	return rel == tree || strings.HasPrefix(rel, tree+"/")
}
