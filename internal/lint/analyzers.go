package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzers returns the registry of invariant checks, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondetermTime,
		RawRand,
		MapOrder,
		NoPanic,
		NakedGoroutine,
		CtxFirst,
		ExportedDoc,
		RawArtifactWrite,
		SerializeExhaustive,
		RngStreamDiscipline,
		DeadExport,
		TestOnlyField,
		StaleSuppression,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// underInternal reports whether the package lives in an internal/ subtree —
// the simulator library packages whose state must be a pure function of
// seeds and configuration.
func underInternal(p *Package) bool {
	return strings.Contains(p.Path+"/", "/internal/")
}

// pkgFuncCall resolves a call of the form pkg.Fn where pkg is an imported
// package, returning the package path and function name.
func pkgFuncCall(p *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// NondetermTime forbids wall-clock reads (and timer construction) in the
// internal/ simulation packages. Simulated time must advance only through
// the simulated clocks (memctrl.Clock and friends); a single time.Now in a
// hot loop silently couples results to the host machine. Command-line
// front-ends (cmd/, examples/) may stamp reports and measure wall time.
var NondetermTime = &Analyzer{
	Name: "nondeterm-time",
	Doc:  "forbid time.Now/time.Since and timers in internal simulation packages",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if !underInternal(p) {
			return
		}
		banned := map[string]bool{
			"Now": true, "Since": true, "Until": true, "Sleep": true,
			"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
			"AfterFunc": true,
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, name, ok := pkgFuncCall(p, call); ok && pkg == "time" && banned[name] {
					report(call, "time.%s in simulation package %s: simulated state must not depend on the wall clock", name, p.Path)
				}
				return true
			})
		}
	},
}

// RawRand forbids math/rand (v1 and v2) everywhere outside internal/rng.
// All randomness must flow through rng.Source seeds and splits so that
// every experiment replays bit-for-bit and parallel fleets stay
// worker-count invariant.
var RawRand = &Analyzer{
	Name: "raw-rand",
	Doc:  "forbid math/rand outside internal/rng; randomness flows through seeded rng.Source splits",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if strings.Contains(p.Path+"/", "/internal/rng/") {
			return
		}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					report(imp, "import of %s: use the seed-split discipline of internal/rng instead", path)
				}
			}
		}
	},
}

// MapOrder flags iteration over a map whose body leaks Go's randomized
// iteration order into results: appending to an outer slice that is never
// sorted afterwards, accumulating floats (addition is not associative), or
// writing output directly from the loop. Order-independent bodies — copying
// into another map, writing m[k] slots, integer counting — are allowed.
var MapOrder = &Analyzer{
	Name: "map-order",
	Doc:  "flag map iteration whose body is sensitive to Go's randomized map order",
	Run:  mapOrderRun,
}

func mapOrderRun(p *Package, report func(ast.Node, string, ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				for {
					if ls, ok := st.(*ast.LabeledStmt); ok {
						st = ls.Stmt
						continue
					}
					break
				}
				if rs, ok := st.(*ast.RangeStmt); ok {
					checkMapRange(p, rs, list[i+1:], report)
				}
			}
			return true
		})
	}
}

func checkMapRange(p *Package, rs *ast.RangeStmt, following []ast.Stmt, report func(ast.Node, string, ...any)) {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	declaredOutside := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range s.Rhs {
					if i >= len(s.Lhs) {
						break
					}
					if !isAppendCall(p, rhs) {
						// Self-referential float accumulation: sum = sum + v.
						if s.Tok == token.ASSIGN && isFloatExpr(p, s.Lhs[i]) &&
							exprUsesObj(p, rhs, rootObject(p, s.Lhs[i])) &&
							declaredOutside(rootObject(p, s.Lhs[i])) {
							report(s, "float accumulation over map iteration: addition order follows Go's randomized map order")
						}
						continue
					}
					obj := rootObject(p, s.Lhs[i])
					if !declaredOutside(obj) {
						continue
					}
					if !sortedAfter(p, obj, following) {
						report(s, "append to %s inside map iteration without a subsequent sort: element order follows Go's randomized map order", obj.Name())
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				obj := rootObject(p, s.Lhs[0])
				if isFloatExpr(p, s.Lhs[0]) && declaredOutside(obj) {
					report(s, "float accumulation over map iteration: addition order follows Go's randomized map order")
				}
			}
		case *ast.CallExpr:
			if pkg, name, ok := pkgFuncCall(p, s); ok && pkg == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				report(s, "output written inside map iteration: line order follows Go's randomized map order")
			}
		}
		return true
	})
}

func isAppendCall(p *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloatExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootObject resolves the variable at the base of an lvalue expression
// (strip selectors, indexes, stars, parens).
func rootObject(p *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprUsesObj(p *Package, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether any statement after the range sorts the
// appended-to variable: a call whose name mentions "sort" (sort.Slice,
// slices.Sort, a local sortFoo helper) with the variable among its
// arguments or as the base of a selector argument.
func sortedAfter(p *Package, obj types.Object, following []ast.Stmt) bool {
	for _, st := range following {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
				if x, ok := fn.X.(*ast.Ident); ok {
					name = x.Name + "." + name // catch sort.Strings etc.
				}
			}
			if !strings.Contains(strings.ToLower(name), "sort") {
				return true
			}
			for _, arg := range call.Args {
				if exprUsesObj(p, arg, obj) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// NoPanic forbids panic in library packages: internal/ and the public root
// package must return errors. Commands and examples may panic or log.Fatal
// at the edge. Invariant guards that are genuinely unreachable carry a
// //lint:ignore no-panic justification.
var NoPanic = &Analyzer{
	Name: "no-panic",
	Doc:  "forbid panic in library packages; errors must be returned",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if p.IsMain() {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					report(call, "panic in library package %s: return an error instead", p.Path)
				}
				return true
			})
		}
	},
}

// NakedGoroutine forbids go statements outside internal/parallel, so all
// concurrency flows through the deterministic submission-ordered pool and
// results stay byte-identical at any worker count.
var NakedGoroutine = &Analyzer{
	Name: "naked-goroutine",
	Doc:  "forbid go statements outside internal/parallel",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if strings.Contains(p.Path+"/", "/internal/parallel/") {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					report(g, "naked goroutine: route concurrency through internal/parallel so results stay deterministic")
				}
				return true
			})
		}
	},
}

// CtxFirst enforces the context discipline: exported functions that accept
// a context.Context take it as the first parameter, and library packages
// never mint their own context.Background()/TODO() — cancellation must flow
// down from the caller (main or the test).
var CtxFirst = &Analyzer{
	Name: "ctx-first",
	Doc:  "context.Context first in exported signatures; no context.Background() in library packages",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if p.IsMain() {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Type.Params == nil {
						return true
					}
					idx := 0
					for _, field := range d.Type.Params.List {
						width := len(field.Names)
						if width == 0 {
							width = 1
						}
						if isContextType(p, field.Type) && idx != 0 {
							report(field, "%s: context.Context must be the first parameter", d.Name.Name)
						}
						idx += width
					}
				case *ast.CallExpr:
					if pkg, name, ok := pkgFuncCall(p, d); ok && pkg == "context" &&
						(name == "Background" || name == "TODO") {
						report(d, "context.%s in library package %s: accept a ctx from the caller instead", name, p.Path)
					}
				}
				return true
			})
		}
	},
}

// RawArtifactWrite forbids raw os.WriteFile/os.Create outside
// internal/checkpoint: campaign artifacts (reports, metrics snapshots,
// traces, bench baselines) must go through checkpoint.WriteFileAtomic so a
// crash mid-write never leaves a truncated file that a resume — or any
// later reader — would trust. Streams that genuinely cannot be buffered
// (the live pprof CPU profile handed to runtime/pprof) carry a
// //lint:ignore raw-artifact-write justification.
var RawArtifactWrite = &Analyzer{
	Name: "raw-artifact-write",
	Doc:  "forbid os.WriteFile/os.Create outside internal/checkpoint; artifacts are written atomically",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if strings.Contains(p.Path+"/", "/internal/checkpoint/") {
			return
		}
		banned := map[string]bool{"WriteFile": true, "Create": true}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, name, ok := pkgFuncCall(p, call); ok && pkg == "os" && banned[name] {
					report(call, "os.%s outside internal/checkpoint: write artifacts through checkpoint.WriteFileAtomic so a crash never leaves a truncated file", name)
				}
				return true
			})
		}
	},
}

func isContextType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
