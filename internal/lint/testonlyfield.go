package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// TestOnlyField flags an exported field of an exported struct in an
// internal/ package that no non-test file of the module writes: an option
// only tests set, whose one production value belongs in a constant. A write
// is a struct literal that sets the field (keyed, positional, or with &T
// elided), an assignment or op-assignment, ++ or --, or taking its address.
// Writing a field of a struct value writes the field that holds the value.
// A json-tagged field counts as written: decoding sets it. The writes come
// from dead-export's index of the whole module, which walks cmd/bench too.
var TestOnlyField = &Analyzer{
	Name: "test-only-field",
	Doc:  "flag exported struct fields under internal/ that no non-test file writes",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if !underInternal(p) {
			return
		}
		idx, err := p.loader.moduleUses()
		if err != nil {
			report(p.Files[0].Name, "cannot index the module's writes: %v", err)
			return
		}
		// A package loaded outside the module walk (a fixture) is not in
		// the module index; its own writes still count.
		local := newUseIndex()
		local.add(p)
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				f := st.Field(i)
				_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
				if tagged || !f.Exported() || f.Embedded() || f.Pkg() != p.Pkg || idx.written[f] || local.written[f] {
					continue
				}
				report(&ast.Ident{NamePos: f.Pos()}, "exported field %s.%s.%s has no non-test writer: make it a constant, move it beside its tests, or delete it", p.Pkg.Name(), name, f.Name())
			}
		}
	},
}

// addWrites indexes the struct fields p's code writes.
func (ix *useIndex) addWrites(p *Package) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				ix.addLiteral(p, n)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					ix.addWrite(p, lhs)
				}
			case *ast.IncDecStmt:
				ix.addWrite(p, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					ix.addWrite(p, n.X)
				}
			}
			return true
		})
	}
}

// addLiteral marks the fields a struct literal sets. A map, slice or array
// literal sets none, although its keyed elements look alike.
func (ix *useIndex) addLiteral(p *Package, lit *ast.CompositeLit) {
	t := p.Info.TypeOf(lit)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	for i := 0; ok && i < len(lit.Elts); i++ {
		kv, keyed := lit.Elts[i].(*ast.KeyValueExpr)
		if !keyed {
			ix.written[st.Field(i).Origin()] = true
		} else if key, isID := kv.Key.(*ast.Ident); isID {
			if v, isVar := p.Info.Uses[key].(*types.Var); isVar {
				ix.written[v.Origin()] = true
			}
		}
	}
}

// addWrite marks the field an assigned or addressed expression names, and
// the fields of the struct values that hold it.
func (ix *useIndex) addWrite(p *Package, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			s := p.Info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			ix.written[s.Obj().(*types.Var).Origin()] = true
			if _, ok := p.Info.TypeOf(x.X).Underlying().(*types.Struct); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}
