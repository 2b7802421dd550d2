// Package lint is reaperlint's analysis framework: a stdlib-only analyzer
// harness (go/parser + go/ast + go/types) that machine-checks the
// determinism and safety invariants every pinned result in this repository
// depends on — seeded rng splits, ordered reduction through
// internal/parallel, and no wall-clock or map-iteration-order leakage into
// simulated state.
//
// Each Analyzer is a named rule. The driver (cmd/reaperlint) loads every
// package of the module with full type information, runs the registry, and
// fails on any unsuppressed finding. A finding can be suppressed, with a
// recorded justification, by placing
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line immediately above it. Suppressions
// without a reason are themselves findings: the whole point is that every
// exception to an invariant carries its justification in the source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package presented to analyzers.
type Package struct {
	Path  string // import path, e.g. "reaper/internal/dram"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TestFiles are the package's _test.go files, parsed but not
	// type-checked. Analyzers do not run on them; they exist so
	// stale-suppression can flag //lint:ignore directives that can never
	// have any effect there.
	TestFiles []*ast.File

	loader *Loader // the loader that checked it, for module-wide indexes
}

// IsMain reports whether the package is a command (package main).
func (p *Package) IsMain() bool { return p.Pkg != nil && p.Pkg.Name() == "main" }

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Suppression is one parsed //lint:ignore directive.
type Suppression struct {
	Pos    token.Position
	Rule   string
	Reason string
	used   bool
}

// Used reports whether the directive silenced at least one finding in the
// run it was collected from. An unused directive is not an error (the rule
// it guards may be filtered out), but -v surfaces it so stale exceptions
// can be pruned.
func (s Suppression) Used() bool { return s.used }

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(n ast.Node, format string, args ...any))
}

// Result aggregates a run over a set of packages.
type Result struct {
	// Findings are the unsuppressed violations, ordered by position.
	Findings []Finding
	// Suppressed counts findings silenced per rule.
	Suppressed map[string]int
	// Suppressions are every parsed directive (used or not), for reporting.
	Suppressions []Suppression
}

// directivePrefix is matched after "//" with no space, mirroring Go's own
// directive comment convention (//go:generate, //line, ...).
const directivePrefix = "lint:ignore"

// parseSuppressions extracts //lint:ignore directives from a file, keyed by
// the source line they govern. A directive governs its own line; when it is
// the only thing on its line, it governs the next line instead. The rule
// field may name several comma-separated rules (//lint:ignore a,b reason);
// each becomes its own Suppression sharing the directive's position.
func parseSuppressions(fset *token.FileSet, f *ast.File) []*Suppression {
	var out []*Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			reason := ""
			if len(fields) > 1 {
				reason = strings.TrimSpace(strings.Join(fields[1:], " "))
			}
			var rules []string
			if len(fields) > 0 {
				for _, r := range strings.Split(fields[0], ",") {
					if r != "" {
						rules = append(rules, r)
					}
				}
			}
			if len(rules) == 0 {
				// Bare (or comma-only) directive: keep one malformed entry
				// so the lint-directive check can flag it.
				rules = []string{""}
			}
			for _, r := range rules {
				out = append(out, &Suppression{Pos: pos, Rule: r, Reason: reason})
			}
		}
	}
	return out
}

// suppressionIndex maps file:line → directives governing that line.
type suppressionIndex map[string]map[int][]*Suppression

func buildSuppressionIndex(p *Package) (suppressionIndex, []*Suppression) {
	idx := suppressionIndex{}
	var all []*Suppression
	for _, f := range p.Files {
		for _, s := range parseSuppressions(p.Fset, f) {
			all = append(all, s)
			line := s.Pos.Line
			// A directive alone on its line shields the next line; a
			// trailing directive shields its own line.
			governed := line
			if !sameLineCode(p, f, s.Pos) {
				governed = line + 1
			}
			byLine := idx[s.Pos.Filename]
			if byLine == nil {
				byLine = map[int][]*Suppression{}
				idx[s.Pos.Filename] = byLine
			}
			byLine[governed] = append(byLine[governed], s)
		}
	}
	return idx, all
}

// sameLineCode reports whether any non-comment token starts on the
// directive's line before the directive itself (i.e. the directive trails
// code rather than standing alone).
func sameLineCode(p *Package, f *ast.File, pos token.Position) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true // the root; its Pos is the package clause
		}
		np := p.Fset.Position(n.Pos())
		if np.Filename == pos.Filename && np.Line == pos.Line && np.Column < pos.Column {
			found = true
			return false
		}
		return true
	})
	return found
}

func (idx suppressionIndex) match(f Finding) *Suppression {
	byLine := idx[f.Pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, s := range byLine[f.Pos.Line] {
		if s.Rule == f.Rule && s.Reason != "" {
			return s
		}
	}
	return nil
}

// Run executes the analyzers over the packages, applying suppressions.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	res := Result{Suppressed: map[string]int{}}
	active := map[string]bool{}
	staleOn := false
	for _, a := range analyzers {
		active[a.Name] = true
		if a.Name == StaleSuppression.Name {
			staleOn = true
		}
	}
	for _, p := range pkgs {
		idx, all := buildSuppressionIndex(p)
		malformedAt := map[token.Position]bool{}
		for _, s := range all {
			if s.Rule == "" || s.Reason == "" {
				// A multi-rule directive without a reason expands to several
				// Suppressions at one position; report the comment once.
				if malformedAt[s.Pos] {
					continue
				}
				malformedAt[s.Pos] = true
				res.Findings = append(res.Findings, Finding{
					Pos:     s.Pos,
					Rule:    "lint-directive",
					Message: "malformed directive: want //lint:ignore <rule> <reason>",
				})
			}
		}
		for _, a := range analyzers {
			a := a
			report := func(n ast.Node, format string, args ...any) {
				f := Finding{
					Pos:     p.Fset.Position(n.Pos()),
					Rule:    a.Name,
					Message: fmt.Sprintf(format, args...),
				}
				if s := idx.match(f); s != nil {
					s.used = true
					res.Suppressed[a.Name]++
					return
				}
				res.Findings = append(res.Findings, f)
			}
			a.Run(p, report)
		}
		// stale-suppression runs after every other analyzer so the used
		// flags reflect the whole run: a well-formed directive for an
		// active rule that silenced nothing is itself rot.
		if staleOn {
			staleSuppressionPass(p, idx, all, active, &res)
		}
		// Snapshot the directives only after every analyzer has run, so
		// each copy's used flag reflects this run.
		for _, s := range all {
			res.Suppressions = append(res.Suppressions, *s)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i].Pos, res.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return res.Findings[i].Rule < res.Findings[j].Rule
	})
	return res
}
