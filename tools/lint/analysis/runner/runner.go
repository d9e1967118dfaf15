// Package runner executes analyzers over loaded packages and applies the
// suppression-comment protocol shared by the whart-lint binary and the
// analysistest harness. Suppressions are tracked individually so a
// directive that silences nothing — because the finding it once covered
// was fixed, or its analyzer name is misspelled — can itself be reported
// as stale instead of rotting in the tree.
package runner

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"wirelesshart/tools/lint/analysis"
	"wirelesshart/tools/lint/analysis/load"
)

// Diagnostic is one positioned finding after suppression filtering.
type Diagnostic struct {
	Position token.Position
	Category string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Category)
}

// Directive is one parsed //whartlint:ignore comment.
type Directive struct {
	// Position locates the comment itself.
	Position token.Position
	// Names are the analyzer names the directive silences ("*" matches
	// every analyzer).
	Names []string
	// Used reports whether the directive silenced at least one
	// diagnostic in this run.
	Used bool
}

func (d Directive) String() string {
	return fmt.Sprintf("%s: %s %s", d.Position, SuppressPrefix, strings.Join(d.Names, ","))
}

// Result is the outcome of one Run: the surviving diagnostics plus every
// suppression directive seen, each marked with whether it fired.
type Result struct {
	// Diagnostics are the unsuppressed findings, sorted by position.
	Diagnostics []Diagnostic
	// Directives are all parsed suppression comments, sorted by position.
	Directives []Directive
}

// Stale returns the directives that silenced nothing even though at
// least one analyzer they name was part of the run (wildcards count for
// any run). Directives naming only analyzers outside ran — e.g. passes
// skipped with -disable — are exempt: their findings were never looked
// for, so their silence proves nothing.
func (r *Result) Stale(ran []*analysis.Analyzer) []Directive {
	names := make(map[string]bool, len(ran))
	for _, a := range ran {
		names[a.Name] = true
	}
	var stale []Directive
	for _, d := range r.Directives {
		if d.Used {
			continue
		}
		for _, n := range d.Names {
			if n == "*" || names[n] {
				stale = append(stale, d)
				break
			}
		}
	}
	return stale
}

// SuppressPrefix introduces a suppression comment:
//
//	//whartlint:ignore <analyzer>[,<analyzer>...] [reason]
//
// placed on the flagged line or the line directly above it.
const SuppressPrefix = "//whartlint:ignore"

// suppressions maps filename -> line -> the directives covering that
// line. The same *Directive appears under both lines it covers, so one
// match marks it used everywhere.
type suppressions map[string]map[int][]*Directive

func collectSuppressions(pkgs []*load.Package) (suppressions, []*Directive) {
	sup := make(suppressions)
	var all []*Directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, SuppressPrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					d := &Directive{Position: pos, Names: strings.Split(fields[0], ",")}
					all = append(all, d)
					lines := sup[pos.Filename]
					if lines == nil {
						lines = make(map[int][]*Directive)
						sup[pos.Filename] = lines
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						lines[ln] = append(lines[ln], d)
					}
				}
			}
		}
	}
	return sup, all
}

// silenced marks every directive covering d as used and reports whether
// at least one matched.
func (s suppressions) silenced(d Diagnostic) bool {
	matched := false
	for _, dir := range s[d.Position.Filename][d.Position.Line] {
		for _, n := range dir.Names {
			if n == "*" || n == d.Category {
				dir.Used = true
				matched = true
				break
			}
		}
	}
	return matched
}

// Run executes every analyzer over every package and returns the
// surviving diagnostics sorted by position, along with the suppression
// directives that filtered them. Analyzer errors abort the run.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) (*Result, error) {
	sup, dirs := collectSuppressions(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    pkg.Module,
			}
			pass.Report = func(d analysis.Diagnostic) {
				out := Diagnostic{
					Position: pkg.Fset.Position(d.Pos),
					Category: a.Name,
					Message:  d.Message,
				}
				if !sup.silenced(out) {
					diags = append(diags, out)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		return lessPos(diags[i].Position, diags[j].Position, diags[i].Category, diags[j].Category)
	})
	res := &Result{Diagnostics: diags, Directives: make([]Directive, len(dirs))}
	for i, d := range dirs {
		res.Directives[i] = *d
	}
	sort.Slice(res.Directives, func(i, j int) bool {
		return lessPos(res.Directives[i].Position, res.Directives[j].Position, "", "")
	})
	return res, nil
}

// lessPos orders by filename, line, column, then a tiebreak string.
func lessPos(a, b token.Position, atie, btie string) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	return atie < btie
}
