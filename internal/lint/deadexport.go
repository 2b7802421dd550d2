package lint

import (
	"go/ast"
	"go/types"
)

// DeadExport flags an exported function or method in an internal/ package
// that no non-test file of the module uses. Test files are never
// type-checked, so a use in a test does not count: code that only tests
// reach belongs in a _test.go file beside them, or nowhere.
//
// The index is the Info.Uses of every package of the module, so a run over
// a subset of packages (reaperlint ./internal/dram) still sees the callers
// outside it. A method also counts as used when its receiver type satisfies
// an interface that declares it and that is the type of some expression in
// loaded code: a named interface, or a literal such as the
// interface{ IndexStats() dram.IndexStats } a caller asserts to probe an
// optional method. fmt.Stringer, which fmt calls on any value it prints,
// counts as mentioned.
var DeadExport = &Analyzer{
	Name: "dead-export",
	Doc:  "flag exported functions and methods under internal/ that no non-test file uses",
	Run: func(p *Package, report func(ast.Node, string, ...any)) {
		if !underInternal(p) {
			return
		}
		idx, err := p.loader.moduleUses()
		if err != nil {
			report(p.Files[0].Name, "cannot index the module's uses: %v", err)
			return
		}
		// A package loaded outside the module walk (a fixture) is not in
		// the module index; its own uses still count.
		local := newUseIndex()
		local.add(p)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() {
					continue
				}
				fn, ok := p.Info.Defs[d.Name].(*types.Func)
				if !ok || idx.live(fn) || local.live(fn) {
					continue
				}
				if recv, isMethod := receiverName(d); isMethod {
					report(d.Name, "exported method %s.%s has no non-test caller: give it one, move it beside its tests, or delete it", recv, d.Name.Name)
				} else {
					report(d.Name, "exported function %s has no non-test caller: give it one, move it beside its tests, or delete it", d.Name.Name)
				}
			}
		}
	},
}

// useIndex records which functions some loaded code uses, the interfaces
// through which it may call a method without naming it, and the struct
// fields it writes (test-only-field).
type useIndex struct {
	used    map[*types.Func]bool
	ifaces  map[*types.Interface]bool
	written map[*types.Var]bool
}

func newUseIndex() *useIndex {
	return &useIndex{used: map[*types.Func]bool{}, ifaces: map[*types.Interface]bool{}, written: map[*types.Var]bool{}}
}

// add indexes one package's uses, the interfaces its code mentions and the
// fields it writes.
func (ix *useIndex) add(p *Package) {
	ix.addWrites(p)
	for _, obj := range p.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			ix.used[fn.Origin()] = true
		}
	}
	for _, tv := range p.Info.Types {
		ix.addIface(tv.Type)
	}
}

func (ix *useIndex) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ix.ifaces[it] = true
	}
}

// live reports whether fn is used by name, or is a method its receiver
// type needs to satisfy an indexed interface that declares it.
func (ix *useIndex) live(fn *types.Func) bool {
	if ix.used[fn] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for it := range ix.ifaces {
		if !declares(it, fn.Name()) {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// moduleUses loads every package of the module and indexes their uses and
// writes, once per loader.
func (l *Loader) moduleUses() (*useIndex, error) {
	if l.uses != nil || l.usesErr != nil {
		return l.uses, l.usesErr
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		l.usesErr = err
		return nil, err
	}
	ix := newUseIndex()
	// fmt calls String on any value it prints.
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		ix.addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, p := range pkgs {
		ix.add(p)
	}
	l.uses = ix
	return ix, nil
}
