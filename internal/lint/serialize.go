package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements serialize-exhaustive, the checkpoint-drift guard.
//
// The repository's resume guarantee ("a resumed campaign is byte-identical
// to an uninterrupted one", DESIGN.md §8) rests on hand-written binary
// codecs: EncodeState/RestoreState method pairs and encodeX/decodeX helper
// pairs in the packages that own checkpoint surfaces. The classic failure
// mode is silent drift: a struct grows a field, the codec pair is not
// updated, and nothing fails until a multi-week soak resumes differently.
//
// The analyzer turns that into a build-time error. For every codec pair it
// computes, via go/types, the full field set of each struct the restore
// side writes into, and requires every field to be either
//
//   - encoded and restored (the normal round-trip),
//   - reset or reconstructed on restore without consuming decoder data
//     (derived state, e.g. caches that refill deterministically), or
//   - explicitly waived with a //lint:serialized-elsewhere <reason>
//     directive on the field declaration.
//
// Two asymmetries are also findings: a field decoded but never encoded
// (the codec would desynchronize the byte stream — and this is exactly
// what deleting one field-encode statement produces, which the mutation
// self-test exercises), and a field encoded but never restored (bytes
// written that no reader consumes). A waiver on a field the encoder does
// cover is itself a finding, so waivers cannot rot.
//
// The analysis is package-local and name-driven: it follows calls from the
// pair's bodies into same-package helpers whose names look like codec code
// (encode*/decode*/restore*/serialize*/...), but does not cross package
// boundaries — each package owning a checkpoint surface is checked against
// its own structs.

// waiverPrefix is the field-level waiver directive, matched after "//" with
// no space (like //go:generate and //lint:ignore).
const waiverPrefix = "lint:serialized-elsewhere"

// SerializeExhaustive reports struct fields missed by a checkpoint codec
// pair: not encoded, not restored, and not waived — plus the one-sided
// drift cases (decoded-but-never-encoded, encoded-but-never-restored) and
// stale waivers.
var SerializeExhaustive = &Analyzer{
	Name: "serialize-exhaustive",
	Doc:  "every field of a checkpointed struct must be encoded+restored, reset on restore, or waived with //lint:serialized-elsewhere",
	Run:  serializeExhaustiveRun,
}

// codecPair is one encode/restore surface: the two function declarations
// whose bodies (plus codec-named same-package helpers they call) form the
// closure the field analysis walks.
type codecPair struct {
	label          string // e.g. "Device.EncodeState/RestoreState"
	encode, decode *ast.FuncDecl
}

// codecCoverage aggregates, across every pair in the package, how each
// struct field is touched.
type codecCoverage struct {
	encoded  map[*types.Var]bool // referenced anywhere in an encode closure
	restored map[*types.Var]bool // referenced anywhere in a restore closure
	written  map[*types.Var]bool // assignment target (or composite-lit key) in a restore closure
	decoded  map[*types.Var]bool // written from an expression that consumes the Decoder
}

func serializeExhaustiveRun(p *Package, report func(ast.Node, string, ...any)) {
	pairs, helpers := findCodecPairs(p)
	if len(pairs) == 0 {
		return
	}
	cov := &codecCoverage{
		encoded:  map[*types.Var]bool{},
		restored: map[*types.Var]bool{},
		written:  map[*types.Var]bool{},
		decoded:  map[*types.Var]bool{},
	}
	for _, pair := range pairs {
		for _, fn := range codecClosure(p, pair.encode, helpers) {
			collectFieldRefs(p, fn.Body, cov.encoded)
		}
		for _, fn := range codecClosure(p, pair.decode, helpers) {
			collectFieldRefs(p, fn.Body, cov.restored)
			collectRestoreWrites(p, fn.Body, cov)
		}
	}
	checkStructs(p, cov, report)
}

// codecNamed reports whether a function name looks like serialization code;
// closure expansion follows only such helpers so ordinary logic (which
// touches many fields for other reasons) never masks missing codec lines.
func codecNamed(name string) bool {
	n := strings.ToLower(name)
	for _, prefix := range []string{"encode", "decode", "restore", "serialize", "deserialize", "marshal", "unmarshal"} {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// recvNamed resolves a method declaration's receiver base named type.
func recvNamed(p *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := p.Info.Types[fd.Recv.List[0].Type]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// findCodecPairs discovers the package's codec surfaces and indexes every
// package-level function/method declaration by its object for closure
// expansion.
func findCodecPairs(p *Package) ([]codecPair, map[types.Object]*ast.FuncDecl) {
	byObj := map[types.Object]*ast.FuncDecl{}
	type methodSide struct {
		named *types.Named
		fd    *ast.FuncDecl
	}
	var encMethods, decMethods []methodSide
	encFuncs := map[string]*ast.FuncDecl{} // lowered suffix after "encode"
	decFuncs := map[string]*ast.FuncDecl{} // lowered suffix after "decode"/"restore"
	topFuncs := map[string]*ast.FuncDecl{} // lowered name -> decl, for Decode<T>/Restore<T> lookups

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				byObj[obj] = fd
			}
			name := strings.ToLower(fd.Name.Name)
			if fd.Recv != nil {
				named := recvNamed(p, fd)
				if named == nil {
					continue
				}
				switch name {
				case "encodestate", "encodedelta", "serialize":
					encMethods = append(encMethods, methodSide{named, fd})
				case "restorestate", "restoredelta", "deserialize":
					decMethods = append(decMethods, methodSide{named, fd})
				}
				continue
			}
			topFuncs[name] = fd
			if rest, ok := strings.CutPrefix(name, "encode"); ok && rest != "" {
				encFuncs[rest] = fd
			}
			if rest, ok := strings.CutPrefix(name, "decode"); ok && rest != "" {
				decFuncs[rest] = fd
			}
			if rest, ok := strings.CutPrefix(name, "restore"); ok && rest != "" {
				if _, taken := decFuncs[rest]; !taken {
					decFuncs[rest] = fd
				}
			}
		}
	}

	var pairs []codecPair
	for _, enc := range encMethods {
		var dec *ast.FuncDecl
		for _, d := range decMethods {
			if d.named == enc.named {
				dec = d.fd
				break
			}
		}
		if dec == nil {
			// Method encoder with a package-function restorer, e.g.
			// Snapshot.EncodeState paired with DecodeSnapshot.
			tn := strings.ToLower(enc.named.Obj().Name())
			if fd, ok := topFuncs["decode"+tn]; ok {
				dec = fd
			} else if fd, ok := topFuncs["restore"+tn]; ok {
				dec = fd
			}
		}
		if dec == nil {
			continue
		}
		pairs = append(pairs, codecPair{
			label:  enc.named.Obj().Name(),
			encode: enc.fd,
			decode: dec,
		})
	}
	var suffixes []string
	for suffix := range encFuncs {
		suffixes = append(suffixes, suffix)
	}
	sort.Strings(suffixes)
	for _, suffix := range suffixes {
		if dec, ok := decFuncs[suffix]; ok {
			pairs = append(pairs, codecPair{label: suffix, encode: encFuncs[suffix], decode: dec})
		}
	}
	return pairs, byObj
}

// codecClosure returns start plus every same-package codec-named function
// transitively called from it (bounded; cycles are harmless).
func codecClosure(p *Package, start *ast.FuncDecl, helpers map[types.Object]*ast.FuncDecl) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{start: true}
	queue := []*ast.FuncDecl{start}
	out := []*ast.FuncDecl{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch f := call.Fun.(type) {
			case *ast.Ident:
				callee = p.Info.Uses[f]
			case *ast.SelectorExpr:
				callee = p.Info.Uses[f.Sel]
			}
			if callee == nil || !codecNamed(callee.Name()) {
				return true
			}
			if fd, ok := helpers[callee]; ok && !seen[fd] {
				seen[fd] = true
				queue = append(queue, fd)
				out = append(out, fd)
			}
			return true
		})
	}
	return out
}

// recordSelectionPath records every struct field along a field selection's
// index path (s.stats.WriteSeconds touches both Station.stats and
// Stats.WriteSeconds; promoted fields record the embedded hop too).
func recordSelectionPath(p *Package, se *ast.SelectorExpr, set map[*types.Var]bool) {
	sel, ok := p.Info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	t := sel.Recv()
	for _, idx := range sel.Index() {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		if idx >= st.NumFields() {
			return
		}
		f := st.Field(idx)
		set[f] = true
		t = f.Type()
	}
}

// structOfCompositeLit resolves a composite literal's struct type, if any.
func structOfCompositeLit(p *Package, lit *ast.CompositeLit) *types.Struct {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// collectFieldRefs records every struct field referenced in the body: via
// selector expressions and via composite-literal construction (keyed and
// positional).
func collectFieldRefs(p *Package, body ast.Node, set map[*types.Var]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			recordSelectionPath(p, x, set)
		case *ast.CompositeLit:
			st := structOfCompositeLit(p, x)
			if st == nil {
				return true
			}
			keyed := false
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					keyed = true
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := p.Info.Uses[id].(*types.Var); ok {
							set[v] = true
						}
					}
				}
			}
			if !keyed && len(x.Elts) > 0 {
				for i := 0; i < st.NumFields(); i++ {
					set[st.Field(i)] = true
				}
			}
		}
		return true
	})
}

// isDecoderType reports whether t is (a pointer to) checkpoint.Decoder.
func isDecoderType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Decoder" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/checkpoint")
}

// consumesDecoder reports whether the expression subtree mentions a value
// of type *checkpoint.Decoder — i.e. whether evaluating it advances the
// decode stream (d.F64(), decodeLabels(d), telemetry.DecodeSnapshot(d)).
func consumesDecoder(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		x, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[x]; ok && isDecoderType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// markLHSFields records the fields along every selector path in an
// assignment target into written (and decoded when fed by the stream).
func markLHSFields(p *Package, lhs ast.Expr, cov *codecCoverage, fromDecoder bool) {
	tmp := map[*types.Var]bool{}
	collectFieldRefs(p, lhs, tmp)
	for f := range tmp {
		cov.written[f] = true
		if fromDecoder {
			cov.decoded[f] = true
		}
	}
}

// collectRestoreWrites classifies restore-side mutations: which fields are
// assignment targets, and which of those consume decoder data (as opposed
// to derived resets like `d.band = d.band[:0]`).
func collectRestoreWrites(p *Package, body ast.Node, cov *codecCoverage) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := x.Rhs
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i : i+1]
				}
				from := false
				for _, r := range rhs {
					if consumesDecoder(p, r) {
						from = true
						break
					}
				}
				markLHSFields(p, lhs, cov, from)
			}
		case *ast.IncDecStmt:
			markLHSFields(p, x.X, cov, false)
		case *ast.CompositeLit:
			st := structOfCompositeLit(p, x)
			if st == nil {
				return true
			}
			keyed := false
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := p.Info.Uses[id].(*types.Var)
				if !ok {
					continue
				}
				cov.written[v] = true
				if consumesDecoder(p, kv.Value) {
					cov.decoded[v] = true
				}
			}
			if !keyed {
				for i, el := range x.Elts {
					if i >= st.NumFields() {
						break
					}
					cov.written[st.Field(i)] = true
					if consumesDecoder(p, el) {
						cov.decoded[st.Field(i)] = true
					}
				}
			}
		}
		return true
	})
}

// fieldWaiver is one parsed //lint:serialized-elsewhere directive.
type fieldWaiver struct {
	comment *ast.Comment
	reason  string
}

// waiverFor extracts a serialized-elsewhere directive from a field's doc or
// trailing comment group.
func waiverFor(field *ast.Field) *fieldWaiver {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+waiverPrefix)
			if !ok {
				continue
			}
			return &fieldWaiver{comment: c, reason: strings.TrimSpace(text)}
		}
	}
	return nil
}

// checkStructs walks every named struct type declared in the package and
// reports codec-coverage violations for those the restore side writes into.
func checkStructs(p *Package, cov *codecCoverage, report func(ast.Node, string, ...any)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				stAST, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj := p.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				checkOneStruct(p, ts.Name.Name, stAST, st, cov, report)
			}
		}
	}
}

func checkOneStruct(p *Package, name string, stAST *ast.StructType, st *types.Struct, cov *codecCoverage, report func(ast.Node, string, ...any)) {
	// Only structs the restore side writes into are checkpoint surfaces;
	// config/geometry structs that codecs merely read (guard comparisons)
	// are construction inputs, out of scope.
	roped := false
	for i := 0; i < st.NumFields(); i++ {
		if cov.written[st.Field(i)] {
			roped = true
			break
		}
	}
	if !roped {
		return
	}
	idx := 0
	for _, field := range stAST.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded
		}
		waiver := waiverFor(field)
		if waiver != nil && waiver.reason == "" {
			report(fieldNode(field, 0), "malformed directive: want //%s <reason>", waiverPrefix)
		}
		for j := 0; j < n; j++ {
			if idx >= st.NumFields() {
				return
			}
			fv := st.Field(idx)
			idx++
			enc, res, dec := cov.encoded[fv], cov.restored[fv], cov.decoded[fv]
			switch {
			case waiver != nil && waiver.reason != "":
				if enc {
					report(fieldNode(field, j), "stale waiver: field %s.%s is encoded by the codec pair; remove the //%s directive", name, fv.Name(), waiverPrefix)
				}
			case enc && res:
				// Round-trips (or is guarded) on both sides.
			case enc && !res:
				report(fieldNode(field, j), "field %s.%s is encoded but never restored: the decode side skips bytes the encode side writes", name, fv.Name())
			case !enc && dec:
				report(fieldNode(field, j), "field %s.%s is decoded but never encoded: the codec pair would desynchronize the checkpoint stream", name, fv.Name())
			case !enc && res:
				// Reset or reconstructed on restore without consuming the
				// stream: derived state, observation-equivalent by contract.
			default:
				report(fieldNode(field, j), "field %s.%s is neither encoded, restored, nor waived: new-field checkpoint drift (encode it or add //%s <reason>)", name, fv.Name(), waiverPrefix)
			}
		}
	}
}

// fieldNode picks the j-th name of a field declaration for reporting (the
// whole field when embedded).
func fieldNode(field *ast.Field, j int) ast.Node {
	if j < len(field.Names) {
		return field.Names[j]
	}
	return field
}

// String satisfies fmt.Stringer for debugging pair discovery.
func (c codecPair) String() string {
	return fmt.Sprintf("%s: %s/%s", c.label, c.encode.Name.Name, c.decode.Name.Name)
}
