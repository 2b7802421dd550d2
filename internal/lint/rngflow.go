package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file implements rng-stream-discipline, the worker-count-invariance
// guard for randomness.
//
// Every random draw in the simulator comes from a seeded xoshiro
// rng.Source. Sources are cheap to fork (rng.Split advances the parent,
// rng.Derive is a pure function of seed and key) precisely so that
// concurrent jobs never share one: a *rng.Source captured by a parallel
// job closure or a goroutine body is mutated in whatever order the
// scheduler runs the jobs, and the draw sequence — and therefore every
// downstream result — varies with worker count and machine load.
//
// The discipline the repository follows (DESIGN.md §3) is intra-procedural
// and checkable: inside a job closure, a *rng.Source must either be
// created there (rng.Derive/Split called inside the closure) or selected
// from a per-job slot indexed by the job's own index parameter
// (seeds[i]). The analyzer flags any other use of a Source that flows in
// from the enclosing function.

// RngStreamDiscipline flags shared *rng.Source values captured by parallel
// job closures and goroutine bodies.
var RngStreamDiscipline = &Analyzer{
	Name: "rng-stream-discipline",
	Doc:  "a *rng.Source used in a goroutine or parallel job closure must be derived inside it or indexed by the job index",
	Run:  rngStreamRun,
}

// isRngSourceType reports whether t is *rng.Source (internal/rng.Source).
func isRngSourceType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Source" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/rng")
}

// elemIsRngSource reports whether a container type holds *rng.Source
// elements (slice, array, or map value).
func elemIsRngSource(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isRngSourceType(u.Elem())
	case *types.Array:
		return isRngSourceType(u.Elem())
	case *types.Map:
		return isRngSourceType(u.Elem())
	}
	return false
}

// jobClosure is one concurrency boundary the analyzer inspects: a function
// literal that parallel machinery (or a go statement) will run on another
// goroutine, plus the closure's job-index parameter when the API provides
// one.
type jobClosure struct {
	lit      *ast.FuncLit
	indexObj types.Object // the int job-index parameter, nil for Do/go
	kind     string       // for the finding message
}

// intParamObj returns the object of the first int-typed parameter of the
// literal — the job index in the parallel.Map/MapPartial/ForEach signatures.
func intParamObj(p *Package, lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	for _, field := range lit.Type.Params.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Int {
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// collectJobClosures finds every concurrency boundary in the file.
func collectJobClosures(p *Package, f *ast.File) []jobClosure {
	var out []jobClosure
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, jobClosure{lit: lit, kind: "goroutine body"})
			}
		case *ast.CallExpr:
			pkg, name, ok := pkgFuncCall(p, x)
			if !ok || !strings.HasSuffix(pkg, "internal/parallel") {
				return true
			}
			switch name {
			case "Map", "MapPartial", "ForEach":
				if len(x.Args) == 0 {
					return true
				}
				lit, ok := x.Args[len(x.Args)-1].(*ast.FuncLit)
				if !ok {
					return true
				}
				out = append(out, jobClosure{
					lit:      lit,
					indexObj: intParamObj(p, lit),
					kind:     "parallel." + name + " job closure",
				})
			case "Do":
				for _, arg := range x.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						out = append(out, jobClosure{lit: lit, kind: "parallel.Do closure"})
					}
				}
			}
		}
		return true
	})
	return out
}

func rngStreamRun(p *Package, report func(ast.Node, string, ...any)) {
	for _, f := range p.Files {
		for _, jc := range collectJobClosures(p, f) {
			checkJobClosure(p, jc, report)
		}
	}
}

// declaredInside reports whether obj's declaration lies within the closure.
func declaredInside(obj types.Object, lit *ast.FuncLit) bool {
	return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

// indexedByJob reports whether the expression (or any index step inside it)
// selects a per-job slot using the closure's index parameter: seeds[i]
// qualifies, srcs[k] where k derives from i stays flagged — only the index
// parameter itself (or an expression mentioning it) qualifies.
func indexedByJob(p *Package, e ast.Expr, indexObj types.Object) bool {
	if indexObj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ie, ok := n.(*ast.IndexExpr); ok && exprUsesObj(p, ie.Index, indexObj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkJobClosure walks the closure body for shared-stream uses. A
// *rng.Source expression is legal when its root variable is declared
// inside the closure (covers s := rng.Derive(...), s := src.Split(k),
// and loop variables of an inner derivation) or when the expression
// selects a per-job slot by the job index.
func checkJobClosure(p *Package, jc jobClosure, report func(ast.Node, string, ...any)) {
	// Nested closures are checked by their own jobClosure entry when they
	// are themselves concurrency boundaries; uses inside them still execute
	// on this job's goroutine, so they are not skipped here.
	ast.Inspect(jc.lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
			e := n.(ast.Expr)
			tv, ok := p.Info.Types[e]
			if !ok || !isRngSourceType(tv.Type) {
				return true
			}
			if declaredInside(rootObject(p, e), jc.lit) {
				return false
			}
			if indexedByJob(p, e, jc.indexObj) {
				return false
			}
			report(e, "shared *rng.Source in %s: draw order would depend on goroutine scheduling; derive a per-job stream with rng.Derive/Split inside the closure or index a per-job slice by the job index", jc.kind)
			return false
		case *ast.RangeStmt:
			// Iterating a captured container of sources hands every shared
			// stream to this job at once.
			tv, ok := p.Info.Types[x.X]
			if !ok || tv.Type == nil || !elemIsRngSource(tv.Type) {
				return true
			}
			if declaredInside(rootObject(p, x.X), jc.lit) {
				return true
			}
			report(x.X, "range over captured *rng.Source container in %s: jobs would share every stream; give each job its own derived source", jc.kind)
			return true
		}
		return true
	})
}
