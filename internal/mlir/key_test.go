package mlir_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
)

var checkedForms struct {
	once  sync.Once
	forms []mlirForm
	err   error
}

// loadCheckedForms collects every distinct MLIR module the oracle checks in
// the verified mix: for every kernel at MINI under every dse.Space()
// configuration and both flows, the module entering each unit that reads
// MLIR (the pristine module, then what the previous unit's check
// compiled); then the same for every kgen corpus kernel under its sampled
// directives.
func loadCheckedForms(t *testing.T) []mlirForm {
	t.Helper()
	checkedForms.once.Do(func() {
		seen := map[string]bool{}
		var errs []error
		type kernel struct {
			name  string
			build func() *mlir.Module
			space []dse.Config
		}
		var kernels []kernel
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				checkedForms.err = err
				return
			}
			kernels = append(kernels, kernel{k.Name, func() *mlir.Module { return k.Build(s) }, dse.Space()})
		}
		for _, k := range kgen.CorpusKernels() {
			kernels = append(kernels, kernel{k.Name, k.Build, []dse.Config{{Label: k.DirectiveLabel, D: k.Directives}}})
		}
		for _, k := range kernels {
			for _, c := range k.space {
				for _, fl := range []struct {
					kind string
					run  func(*mlir.Module, string, flow.Directives, hls.Target, flow.Options) (*flow.Result, error)
				}{{"adaptor", flow.AdaptorFlowWith}, {"cxx", flow.CxxFlowWith}} {
					label := k.name + " " + c.Label + " " + fl.kind
					observe := func(stage, pass, ir string) {
						switch stage {
						case "mlir-opt", "lowering", "translate", "emit-hlscpp":
						default:
							return
						}
						if seen[ir] {
							return
						}
						seen[ir] = true
						m, err := parser.Parse(ir)
						if err != nil {
							errs = append(errs, fmt.Errorf("%s entering %s/%s: %w", label, stage, pass, err))
							return
						}
						checkedForms.forms = append(checkedForms.forms, mlirForm{label + " entering " + stage + "/" + pass, k.name, m})
					}
					if _, err := fl.run(k.build(), k.name, c.D, hls.DefaultTarget(), flow.Options{Observer: observe}); err != nil {
						checkedForms.err = fmt.Errorf("%s: %w", label, err)
						return
					}
				}
			}
		}
		if len(errs) > 0 {
			checkedForms.err = errs[0]
		}
	})
	if checkedForms.err != nil {
		t.Fatal(checkedForms.err)
	}
	return checkedForms.forms
}

// TestKeyRefinesEqual: over every form the verified mix and the kgen
// corpus check, two modules with the same program key compile to Equal
// programs. Many forms share a key — the ones directive passes and no-op
// cleanups leave as they found them.
func TestKeyRefinesEqual(t *testing.T) {
	forms := loadCheckedForms(t)
	type rep struct {
		label string
		p     *mlir.Program
	}
	byKey := map[[32]byte]rep{}
	var progs []*mlir.Program // one per distinct program
	for _, f := range forms {
		key, err := f.mod.ProgramKey(f.top)
		if err != nil {
			t.Fatal(err)
		}
		p, err := f.mod.CompileFresh(f.top)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := byKey[key]; ok {
			if !p.Equal(r.p) {
				t.Errorf("%s and %s share a program key but compile to programs that are not Equal", f.label, r.label)
			}
			continue
		}
		byKey[key] = rep{f.label, p}
		if !slices.ContainsFunc(progs, p.Equal) {
			progs = append(progs, p)
		}
	}
	if len(byKey) == len(forms) || len(progs) < 50 {
		t.Errorf("%d keys and %d programs over %d forms: the forms do not exercise the key", len(byKey), len(progs), len(forms))
	}
	t.Logf("%d forms, %d distinct keys, %d distinct programs", len(forms), len(byKey), len(progs))
}

// keyFieldSample has an scf.if with an else branch, an scf.for, integer
// and float constants, comparisons, a select, an alloc and a map with
// every affine expression kind.
const keyFieldSample = `module {
  func.func @k(%arg0: memref<8xf32>, %arg1: memref<4x4xi32>) {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    %z = arith.constant -0.0 : f32
    %buf = memref.alloc() : memref<4xf32>
    affine.for %i = 0 to 4 step 1 {
      %a = affine.apply affine_map<(d0)[s0] -> ((d0 * 2 + s0) mod 8 + d0 floordiv 2 - d0 ceildiv 3)>(%i, %c1)
      %x = affine.load %arg0[%a] : memref<8xf32>
      %p = arith.cmpf olt, %x, %z : f32
      %y = arith.select %p, %x, %z : f32
      affine.store %y, %buf[%i] : memref<4xf32>
    }
    scf.for %j = %c0 to %c4 step %c1 {
      %v = memref.load %arg1[%j, %j] : memref<4x4xi32>
      %c = arith.cmpi slt, %v, %v : i32
      scf.if %c {
        %w = arith.addi %v, %v : i32
        memref.store %w, %arg1[%j, %c0] : memref<4x4xi32>
      } else {
        %q = arith.constant 3 : i32
        memref.store %q, %arg1[%j, %c1] : memref<4x4xi32>
      }
    }
    func.return
  }
}
`

// valueSites lists every value of the function: block arguments and op
// results, nested ones included.
func valueSites(f *mlir.Op) []*mlir.Value {
	var vs []*mlir.Value
	mlir.Walk(f, func(o *mlir.Op) bool {
		vs = append(vs, o.Results...)
		for _, r := range o.Regions {
			for _, b := range r.Blocks {
				vs = append(vs, b.Args...)
			}
		}
		return true
	})
	return vs
}

// exprSite is one node of an affine map result, reached from the op's
// attribute slot through the result index and the path of operand sides.
type exprSite struct {
	attr *mlir.NamedAttr
	k    int
	path []int // 0: LHS, 1: RHS
}

// mirSites lists the sites of one IR struct in function f. Attribute
// values and types are listed per slot, and a mutation stores an edited
// copy there, since they may be shared.
func mirSites(f *mlir.Op, kind string) []any {
	var sites []any
	mlir.Walk(f, func(o *mlir.Op) bool {
		switch kind {
		case "Op":
			sites = append(sites, o)
		case "Region", "Block":
			for _, r := range o.Regions {
				if kind == "Region" {
					sites = append(sites, r)
					continue
				}
				for _, b := range r.Blocks {
					sites = append(sites, b)
				}
			}
		}
		for i := range o.Attrs {
			a := &o.Attrs[i]
			if kind == "AffineExpr" {
				if m, ok := a.Value.(mlir.AffineMapAttr); ok && m.Map != nil {
					for k, e := range m.Map.Exprs {
						var walk func(e *mlir.AffineExpr, path []int)
						walk = func(e *mlir.AffineExpr, path []int) {
							if e == nil {
								return
							}
							sites = append(sites, exprSite{a, k, slices.Clone(path)})
							walk(e.LHS, append(path, 0))
							walk(e.RHS, append(path, 1))
						}
						walk(e, nil)
					}
				}
				continue
			}
			name := reflect.TypeOf(a.Value).Name()
			if name == kind || (kind == "AffineMap" && name == "AffineMapAttr") {
				sites = append(sites, a)
			}
		}
		return true
	})
	switch kind {
	case "Value":
		for _, v := range valueSites(f) {
			sites = append(sites, v)
		}
	case "Type":
		for _, v := range valueSites(f) {
			sites = append(sites, &v.Ty)
		}
	}
	return sites
}

// set stores v into *field and returns the undo.
func set[T any](field *T, v T) func() {
	old := *field
	*field = v
	return func() { *field = old }
}

// altType returns a type structurally different from t.
func altType(t *mlir.Type) *mlir.Type {
	if t.Equal(mlir.I64()) {
		return mlir.I32()
	}
	return mlir.I64()
}

// attrSite stores the edited copy edit returns into the attribute slot.
func attrSite(s any, edit func(a mlir.Attr) mlir.Attr) (func(), bool) {
	a := s.(*mlir.NamedAttr)
	return set(&a.Value, edit(a.Value)), true
}

// mapSite stores an edited copy of the slot's affine map.
func mapSite(s any, edit func(m *mlir.AffineMap)) (func(), bool) {
	return attrSite(s, func(a mlir.Attr) mlir.Attr {
		m := *a.(mlir.AffineMapAttr).Map
		m.Exprs = slices.Clone(m.Exprs)
		edit(&m)
		return mlir.AffineMapAttr{Map: &m}
	})
}

// exprNodeSite stores a map whose expression node at the site is an edited
// copy, copying the nodes on the path to it.
func exprNodeSite(s any, edit func(e *mlir.AffineExpr)) (func(), bool) {
	site := s.(exprSite)
	return attrSite(site.attr, func(a mlir.Attr) mlir.Attr {
		m := *a.(mlir.AffineMapAttr).Map
		m.Exprs = slices.Clone(m.Exprs)
		var rebuild func(e *mlir.AffineExpr, path []int) *mlir.AffineExpr
		rebuild = func(e *mlir.AffineExpr, path []int) *mlir.AffineExpr {
			c := *e
			switch {
			case len(path) == 0:
				edit(&c)
			case path[0] == 0:
				c.LHS = rebuild(e.LHS, path[1:])
			default:
				c.RHS = rebuild(e.RHS, path[1:])
			}
			return &c
		}
		m.Exprs[site.k] = rebuild(m.Exprs[site.k], site.path)
		return mlir.AffineMapAttr{Map: &m}
	})
}

// typeSite stores an edited copy of the slot's type.
func typeSite(s any, edit func(t *mlir.Type)) (func(), bool) {
	slot := s.(**mlir.Type)
	if *slot == nil {
		return nil, false
	}
	t := **slot
	t.Shape = slices.Clone(t.Shape)
	edit(&t)
	return set(slot, &t), true
}

// mirFields maps every field of the IR structs the compiler may read to
// its mutator. mirExempt names the bookkeeping it never trusts on its own:
// parent links, the stamps and block numbers the numbering walks write
// (checked before they are trusted), and a type's cached spelling.
var (
	mirExempt = map[string]bool{"Op.parent": true, "Value.scope": true, "Block.parent": true, "Block.num": true,
		"Region.parent": true, "Type.text": true}
	mirFields = map[string]func(s any) (func(), bool){
		"Op.Name": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			n := mlir.OpAddF
			if o.Name == n {
				n = mlir.OpSubF
			}
			return set(&o.Name, n), true
		},
		"Op.Operands": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			if len(o.Operands) == 0 {
				return nil, false
			}
			ops := slices.Clone(o.Operands)
			ops[len(ops)-1] = &mlir.Value{Ty: ops[len(ops)-1].Ty}
			return set(&o.Operands, ops), true
		},
		"Op.Results": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			if len(o.Results) == 0 {
				return nil, false
			}
			rs := slices.Clone(o.Results)
			rs[0] = &mlir.Value{Ty: rs[0].Ty, Def: o}
			return set(&o.Results, rs), true
		},
		"Op.Attrs": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			undo := set(&o.Attrs, slices.Clone(o.Attrs))
			o.SetAttr(mlir.AttrUnroll, mlir.I(4))
			return undo, true
		},
		"Op.Regions": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			if len(o.Regions) == 0 {
				return nil, false
			}
			return set(&o.Regions, o.Regions[:len(o.Regions)-1]), true
		},
		"Op.Succs": func(s any) (func(), bool) {
			o := s.(*mlir.Op)
			if len(o.Succs) == 0 || o.Block() == nil || o.Block().Region() == nil {
				return nil, false
			}
			blocks := o.Block().Region().Blocks
			succs := slices.Clone(o.Succs)
			succs[0] = blocks[(slices.Index(blocks, succs[0])+1)%len(blocks)]
			return set(&o.Succs, succs), true
		},
		"Value.Ty":    func(s any) (func(), bool) { v := s.(*mlir.Value); return set(&v.Ty, altType(v.Ty)), true },
		"Value.Def":   func(s any) (func(), bool) { v := s.(*mlir.Value); return set(&v.Def, nil), true },
		"Value.Owner": func(s any) (func(), bool) { v := s.(*mlir.Value); return set(&v.Owner, nil), true },
		"Value.ResNo": func(s any) (func(), bool) { v := s.(*mlir.Value); return set(&v.ResNo, v.ResNo+1), true },
		"Value.ArgNo": func(s any) (func(), bool) { v := s.(*mlir.Value); return set(&v.ArgNo, v.ArgNo+1), true },
		"Block.Args": func(s any) (func(), bool) {
			b := s.(*mlir.Block)
			if len(b.Args) == 0 {
				return nil, false
			}
			return set(&b.Args, b.Args[:len(b.Args)-1]), true
		},
		"Block.Ops": func(s any) (func(), bool) {
			b := s.(*mlir.Block)
			if len(b.Ops) == 0 {
				return nil, false
			}
			return set(&b.Ops, b.Ops[:len(b.Ops)-1]), true
		},
		"Region.Blocks": func(s any) (func(), bool) {
			r := s.(*mlir.Region)
			if len(r.Blocks) == 0 {
				return nil, false
			}
			return set(&r.Blocks, r.Blocks[:len(r.Blocks)-1]), true
		},
		"Type.Kind": func(s any) (func(), bool) {
			return typeSite(s, func(t *mlir.Type) { t.Kind = (t.Kind + 1) % (mlir.KindNone + 1) })
		},
		"Type.Width": func(s any) (func(), bool) { return typeSite(s, func(t *mlir.Type) { t.Width += 32 }) },
		"Type.Elem": func(s any) (func(), bool) {
			return typeSite(s, func(t *mlir.Type) {
				if t.Elem == nil {
					t.Elem = mlir.I32()
				} else {
					t.Elem = altType(t.Elem)
				}
			})
		},
		"Type.Shape": func(s any) (func(), bool) {
			return typeSite(s, func(t *mlir.Type) { t.Shape = append(t.Shape, 2) })
		},
		"IntAttr.Value": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr { x := a.(mlir.IntAttr); x.Value++; return x })
		},
		"IntAttr.Ty": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr {
				x := a.(mlir.IntAttr)
				if x.Ty == nil {
					x.Ty = mlir.I32()
				} else {
					x.Ty = nil
				}
				return x
			})
		},
		"FloatAttr.Value": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr {
				x := a.(mlir.FloatAttr)
				x.Value = math.Copysign(x.Value, -math.Copysign(1, x.Value))
				return x
			})
		},
		"FloatAttr.Ty": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr {
				x := a.(mlir.FloatAttr)
				x.Ty = altType(x.Ty)
				return x
			})
		},
		"StringAttr": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr { return a.(mlir.StringAttr) + "x" })
		},
		"TypeAttr.Ty": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr { return mlir.TypeAttr{Ty: altType(a.(mlir.TypeAttr).Ty)} })
		},
		"AffineMapAttr.Map": func(s any) (func(), bool) {
			return attrSite(s, func(a mlir.Attr) mlir.Attr {
				m := *a.(mlir.AffineMapAttr).Map
				m.Exprs = []*mlir.AffineExpr{mlir.Const(7)}
				return mlir.AffineMapAttr{Map: &m}
			})
		},
		"AffineMap.NumDims": func(s any) (func(), bool) { return mapSite(s, func(m *mlir.AffineMap) { m.NumDims++ }) },
		"AffineMap.NumSyms": func(s any) (func(), bool) { return mapSite(s, func(m *mlir.AffineMap) { m.NumSyms++ }) },
		"AffineMap.Exprs": func(s any) (func(), bool) {
			return mapSite(s, func(m *mlir.AffineMap) { m.Exprs = append(m.Exprs, mlir.Const(0)) })
		},
		"AffineExpr.Kind": func(s any) (func(), bool) {
			return exprNodeSite(s, func(e *mlir.AffineExpr) { e.Kind = (e.Kind + 1) % (mlir.AffineCeilDiv + 1) })
		},
		"AffineExpr.Pos": func(s any) (func(), bool) { return exprNodeSite(s, func(e *mlir.AffineExpr) { e.Pos++ }) },
		"AffineExpr.Val": func(s any) (func(), bool) { return exprNodeSite(s, func(e *mlir.AffineExpr) { e.Val++ }) },
		"AffineExpr.LHS": func(s any) (func(), bool) {
			return exprNodeSite(s, func(e *mlir.AffineExpr) { e.LHS = mlir.Const(3) })
		},
		"AffineExpr.RHS": func(s any) (func(), bool) {
			return exprNodeSite(s, func(e *mlir.AffineExpr) { e.RHS = mlir.Const(5) })
		},
	}
)

// TestKeySeesEveryIRField: every field of the IR structs and attribute
// values the compiler may read is either exempt by name as bookkeeping or
// mutated at every site in a sample of forms, and after each mutation
// either the key changed or the module still compiles to an Equal program
// (or both fail alike). A field added to one of the structs fails the test
// until it is classified.
func TestKeySeesEveryIRField(t *testing.T) {
	for _, x := range []any{mlir.Op{}, mlir.Value{}, mlir.Block{}, mlir.Region{}, mlir.Type{},
		mlir.IntAttr{}, mlir.FloatAttr{}, mlir.AffineMapAttr{}, mlir.AffineMap{}, mlir.AffineExpr{}, mlir.TypeAttr{}} {
		rt := reflect.TypeOf(x)
		for i := 0; i < rt.NumField(); i++ {
			name := rt.Name() + "." + rt.Field(i).Name
			if _, ok := mirFields[name]; !ok && !mirExempt[name] {
				t.Errorf("field %s is neither mutated nor exempt", name)
			}
		}
	}
	type text struct{ src, top string }
	texts := []text{{keyFieldSample, "k"}}
	forms := loadCheckedForms(t)
	for i := 0; i < len(forms); i += len(forms)/16 + 1 {
		texts = append(texts, text{forms[i].mod.Print(), forms[i].top})
	}
	mutated, changed := 0, 0
	for ti, tx := range texts {
		m, err := parser.Parse(tx.src)
		if err != nil {
			t.Fatal(err)
		}
		base, err := m.CompileFresh(tx.top)
		if err != nil {
			t.Fatal(err)
		}
		baseKey, err := m.ProgramKey(tx.top)
		if err != nil {
			t.Fatal(err)
		}
		f := m.FindFunc(tx.top)
		for name, mut := range mirFields {
			kind, _, _ := strings.Cut(name, ".")
			for si, site := range mirSites(f, kind) {
				undo, ok := mut(site)
				if !ok {
					continue
				}
				mutated++
				key, kerr := m.ProgramKey(tx.top)
				if kerr == nil && key != baseKey {
					changed++
				} else {
					p, cerr := m.CompileFresh(tx.top)
					if (kerr == nil) != (cerr == nil) {
						t.Errorf("text %d: %s at site %d: ProgramKey error %v, Compile error %v", ti, name, si, kerr, cerr)
					} else if cerr == nil && !p.Equal(base) {
						t.Errorf("text %d: %s at site %d: key unchanged but the program differs: %s", ti, name, si, mlir.Diff(p, base))
					}
				}
				undo()
			}
		}
		if key, err := m.ProgramKey(tx.top); err != nil || key != baseKey {
			t.Fatalf("text %d: undoing the mutations left another key (%v)", ti, err)
		}
	}
	t.Logf("%d mutations over %d modules, %d changed the key", mutated, len(texts), changed)
}

// TestKeyForeignValues: a value defined outside the function — in another
// function or in no block at all — is numbered like any other on first
// sight, as the compiler gives it a slot; a branch to a block outside the
// function's region gets a tag of its own that never aliases a block
// index. Every variant's key differs from the base's, and two variants
// share a key exactly when they compile to Equal programs.
func TestKeyForeignValues(t *testing.T) {
	const src = `module {
  func.func @other(%a: memref<4xi32>) {
    %o = arith.constant 5 : i32
    func.return
  }
  func.func @k(%arg0: memref<4xi32>) {
    %c0 = arith.constant 0 : index
    %x = arith.constant 2 : i32
    %y = arith.addi %x, %x : i32
    memref.store %y, %arg0[%c0] : memref<4xi32>
    cf.br ^bb1
  ^bb1:
    func.return
  }
}
`
	add := func(m *mlir.Module) *mlir.Op { return mlir.FuncBody(m.FindFunc("k")).Ops[2] }
	br := func(m *mlir.Module) *mlir.Op { return mlir.FuncBody(m.FindFunc("k")).Ops[4] }
	other := func(m *mlir.Module) *mlir.Value { return mlir.FuncBody(m.FindFunc("other")).Ops[0].Results[0] }
	variants := []struct {
		name string
		edit func(m *mlir.Module)
	}{
		{"base", func(*mlir.Module) {}},
		{"foreign value", func(m *mlir.Module) { add(m).Operands[1] = other(m) }},
		{"detached value", func(m *mlir.Module) { add(m).Operands[1] = &mlir.Value{Ty: mlir.I32()} }},
		{"detached value twice", func(m *mlir.Module) {
			v := &mlir.Value{Ty: mlir.I32()}
			add(m).Operands[0], add(m).Operands[1] = v, v
		}},
		{"two detached values", func(m *mlir.Module) {
			add(m).Operands[0], add(m).Operands[1] = &mlir.Value{Ty: mlir.I32()}, &mlir.Value{Ty: mlir.I32()}
		}},
		{"foreign block", func(m *mlir.Module) { br(m).Succs[0] = mlir.FuncBody(m.FindFunc("other")) }},
		{"detached block", func(m *mlir.Module) { br(m).Succs[0] = mlir.NewBlock() }},
		{"entry block", func(m *mlir.Module) { br(m).Succs[0] = mlir.FuncBody(m.FindFunc("k")) }},
	}
	keys := make([][32]byte, len(variants))
	progs := make([]*mlir.Program, len(variants))
	for i, v := range variants {
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		v.edit(m)
		if keys[i], err = m.ProgramKey("k"); err != nil {
			t.Fatal(err)
		}
		if progs[i], err = m.CompileFresh("k"); err != nil {
			t.Fatal(err)
		}
		if i > 0 && keys[i] == keys[0] {
			t.Errorf("%s has the base's key", v.name)
		}
	}
	for i := range variants {
		for j := i + 1; j < len(variants); j++ {
			if sameKey, same := keys[i] == keys[j], progs[i].Equal(progs[j]); sameKey != same {
				t.Errorf("%s and %s: same key %v, Equal programs %v", variants[i].name, variants[j].name, sameKey, same)
			}
		}
	}
	if keys[3] == keys[4] {
		t.Error("one detached value read twice keys like two detached values")
	}
}
