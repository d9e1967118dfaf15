// Package exhaustenum requires switches over the model's enum types —
// node roles (topology.NodeKind) and any future first-party enum — to
// either cover every declared member or carry a default clause. Adding a
// member (a third node role, say) must produce compile-visible work
// items, not a silent fall-through that treats the new member as none of
// the old ones.
//
// An enum is any named type, defined in a first-party package, with an
// integer or string underlying type and at least two package-level
// constants of that exact type. Coverage is by constant value, so aliased
// members (two names, one value) count as one case.
package exhaustenum

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"wirelesshart/tools/lint/analysis"
)

// Analyzer is the exhaustenum pass.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustenum",
	Doc: "require switch statements over first-party enum types (such as node " +
		"kinds) to cover all members or declare a default clause",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !firstParty(pass, obj.Pkg()) {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return
	}

	members := enumMembers(obj.Pkg(), named)
	if len(members) < 2 {
		return
	}

	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: new members cannot fall through silently
		}
		for _, e := range cc.List {
			etv, ok := pass.TypesInfo.Types[e]
			if !ok {
				return
			}
			if etv.Value == nil {
				return // non-constant case: coverage is not decidable
			}
			covered[etv.Value.ExactString()] = true
		}
	}

	var missing []string
	for val, names := range members {
		if !covered[val] {
			missing = append(missing, names[0])
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Switch, "switch over %s is not exhaustive and has no default clause: missing %s",
		typeName(pass, named), strings.Join(missing, ", "))
}

// enumMembers returns the package-level constants of type named, keyed by
// exact constant value; each value maps to its declared names in source
// order of the scope (sorted for determinism).
func enumMembers(pkg *types.Package, named *types.Named) map[string][]string {
	members := make(map[string][]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		members[key] = append(members[key], name)
	}
	for _, names := range members {
		sort.Strings(names)
	}
	return members
}

// firstParty reports whether pkg belongs to the module under analysis (the
// analyzed package itself always counts).
func firstParty(pass *analysis.Pass, pkg *types.Package) bool {
	if pkg == pass.Pkg {
		return true
	}
	if pass.Module == "" {
		return false
	}
	return pkg.Path() == pass.Module || strings.HasPrefix(pkg.Path(), pass.Module+"/")
}

// typeName renders the enum type relative to the analyzed package.
func typeName(pass *analysis.Pass, named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == pass.Pkg {
		return obj.Name()
	}
	return fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
}
