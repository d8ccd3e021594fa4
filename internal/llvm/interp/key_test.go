package interp_test

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
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

var checkedForms struct {
	once  sync.Once
	forms []llvmForm
	err   error
}

// loadCheckedForms collects every distinct LLVM module the oracle checks
// in the verified mix: for every kernel at MINI under every dse.Space()
// configuration and both flows, the module entering each LLVM-level unit
// (what the previous unit's check compiled) and the final module; then
// the same for every kgen corpus kernel under its sampled directives.
func loadCheckedForms(t *testing.T) []llvmForm {
	t.Helper()
	checkedForms.once.Do(func() {
		seen := map[string]bool{}
		var errs []error
		add := func(label, top, text string) {
			if seen[text] {
				return
			}
			seen[text] = true
			m, err := parser.Parse(text)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", label, err))
				return
			}
			checkedForms.forms = append(checkedForms.forms, llvmForm{label: label, top: top, mod: m})
		}
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				checkedForms.err = err
				return
			}
			for _, c := range dse.Space() {
				for _, fl := range []struct {
					kind string
					run  func(*mlir.Module, string, flow.Directives, hls.Target, flow.Options) (*flow.Result, error)
				}{{"adaptor", flow.AdaptorFlowWith}, {"cxx", flow.CxxFlowWith}} {
					label := k.Name + " " + c.Label + " " + fl.kind
					observe := func(stage, pass, ir string) {
						switch stage {
						case "adaptor", "llvm-opt", "synthesis":
							add(label+" entering "+stage+"/"+pass, k.Name, ir)
						}
					}
					res, err := fl.run(k.Build(s), k.Name, c.D, hls.DefaultTarget(), flow.Options{Observer: observe})
					if err != nil {
						checkedForms.err = fmt.Errorf("%s: %w", label, err)
						return
					}
					add(label+" final", k.Name, res.LLVM.Print())
				}
			}
		}
		for _, k := range kgen.CorpusKernels() {
			for _, fl := range []struct {
				kind string
				run  func(*mlir.Module, string, flow.Directives, hls.Target, flow.Options) (*flow.Result, error)
			}{{"adaptor", flow.AdaptorFlowWith}, {"cxx", flow.CxxFlowWith}} {
				label := k.Name + " " + k.DirectiveLabel + " " + fl.kind
				observe := func(stage, pass, ir string) {
					switch stage {
					case "adaptor", "llvm-opt", "synthesis":
						add(label+" entering "+stage+"/"+pass, k.Name, ir)
					}
				}
				m := k.Build()
				if m == nil {
					checkedForms.err = fmt.Errorf("%s: corpus text does not parse", label)
					return
				}
				res, err := fl.run(m, k.Name, k.Directives, hls.DefaultTarget(), flow.Options{Observer: observe})
				if err != nil {
					checkedForms.err = fmt.Errorf("%s: %w", label, err)
					return
				}
				add(label+" final", k.Name, res.LLVM.Print())
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
// programs. Many forms share a key — the ones directive passes, no-op
// cleanups and synthesis leave as they found them.
func TestKeyRefinesEqual(t *testing.T) {
	forms := loadCheckedForms(t)
	type rep struct {
		label string
		p     *interp.Program
	}
	byKey := map[[32]byte]rep{}
	var progs []*interp.Program // one per distinct program
	for _, f := range forms {
		key, err := interp.ProgramKey(f.mod, f.top)
		if err != nil {
			t.Fatal(err)
		}
		p, err := interp.CompileFresh(f.mod, f.top)
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
	if len(byKey) == len(forms) || len(progs) < 100 {
		t.Errorf("%d keys and %d programs over %d forms: the forms do not exercise the key", len(byKey), len(progs), len(forms))
	}
	t.Logf("%d forms, %d distinct keys, %d distinct programs", len(forms), len(byKey), len(progs))
}

// keyFieldSample is a module with a call into a defined function, phis,
// an undef, float constants, a struct gep, a select and an intrinsic:
// every IR field the compiler reads appears at some site.
const keyFieldSample = `; ModuleID = 't'
; Flavor: modern

define i64 @callee(i64 %a, ptr %p) {
entry:
  %v = load i64, ptr %p
  %s = add i64 %a, %v
  ret i64 %s
}

define void @k(ptr %out, ptr %pair, i64 %n) {
entry:
  %buf = alloca [4 x i64]
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %f = phi double [ 0.5, %entry ], [ %g, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %q = getelementptr { i32, i64 }, ptr %pair, i64 0, i32 1
  %x = call i64 @callee(i64 %i, ptr %q)
  %g = fadd double %f, -0.0
  %r = call double @llvm.sqrt.f64(double %g)
  %t = fptosi double %r to i64
  %e = getelementptr [4 x i64], ptr %buf, i64 0, i64 %i
  %sel = select i1 %c, i64 %x, i64 undef
  %z = zext i1 %c to i64
  %w = add i64 %sel, %z
  store i64 %w, ptr %e
  %o = getelementptr i64, ptr %out, i64 %i
  store i64 %t, ptr %o
  %next = add i64 %i, 1
  br label %loop
exit:
  ret void
}

declare double @llvm.sqrt.f64(double %x)
`

// fieldMutator changes one field at one site and returns the undo, or
// false when the field cannot be changed there.
type fieldMutator func(site any) (undo func(), ok bool)

// altType returns a type structurally different from t.
func altType(t *llvm.Type) *llvm.Type {
	if t.Equal(llvm.I64()) {
		return llvm.I32()
	}
	return llvm.I64()
}

// typeSites lists the places a type hangs off the IR: each is a pointer
// to a *llvm.Type field, so a mutation replaces the site's type with an
// edited copy and leaves the shared, interned types alone.
func typeSites(m *llvm.Module) []**llvm.Type {
	var sites []**llvm.Type
	for _, f := range m.Funcs {
		sites = append(sites, &f.Ret)
		for _, p := range f.Params {
			sites = append(sites, &p.Ty)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				sites = append(sites, &in.Ty, &in.SrcElem)
				for _, v := range in.Args {
					switch c := v.(type) {
					case *llvm.ConstInt:
						sites = append(sites, &c.Ty)
					case *llvm.ConstFloat:
						sites = append(sites, &c.Ty)
					case *llvm.Undef:
						sites = append(sites, &c.Ty)
					}
				}
			}
		}
	}
	return sites
}

// irSites lists the sites of one IR struct in m. Constants are listed per
// operand slot, and a mutation replaces the slot's constant with an
// edited copy, since constants may be shared.
func irSites(m *llvm.Module, kind string) []any {
	var sites []any
	for _, f := range m.Funcs {
		if kind == "Function" {
			sites = append(sites, f)
		}
		for _, p := range f.Params {
			if kind == "Param" {
				sites = append(sites, p)
			}
		}
		for _, b := range f.Blocks {
			if kind == "Block" {
				sites = append(sites, b)
			}
			for _, in := range b.Instrs {
				if kind == "Instr" {
					sites = append(sites, in)
				}
				for i, v := range in.Args {
					switch v.(type) {
					case *llvm.ConstInt, *llvm.ConstFloat, *llvm.Undef:
						if reflect.TypeOf(v).Elem().Name() == kind {
							sites = append(sites, &in.Args[i])
						}
					}
				}
			}
		}
	}
	if kind == "Type" {
		for _, s := range typeSites(m) {
			sites = append(sites, s)
		}
	}
	return sites
}

// set returns a mutator that stores v into *field and undoes it.
func set[T any](field *T, v T) func() {
	old := *field
	*field = v
	return func() { *field = old }
}

// constSite replaces the constant in the operand slot with the edited
// copy edit returns.
func constSite(site any, edit func(v llvm.Value) llvm.Value) (func(), bool) {
	slot := site.(*llvm.Value)
	return set(slot, edit(*slot)), true
}

// typeSite replaces the type at the site with an edited copy.
func typeSite(site any, edit func(t *llvm.Type) bool) (func(), bool) {
	slot := site.(**llvm.Type)
	if *slot == nil {
		return nil, false
	}
	t := **slot
	if !edit(&t) {
		return nil, false
	}
	return set(slot, &t), true
}

// irFields maps every field of the IR structs the compiler may read to its
// mutators. exemptFields names the bookkeeping the compiler never trusts
// on its own: layout numbers (checked against a snapshot) and parent links.
var (
	exemptFields = map[string]bool{"Instr.ID": true, "Instr.Parent": true, "Block.ID": true, "Block.Parent": true}
	irFields     = map[string]fieldMutator{
		"Instr.Op": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			op := llvm.OpAdd
			if in.Op == op {
				op = llvm.OpSub
			}
			return set(&in.Op, op), true
		},
		"Instr.Name": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			return set(&in.Name, in.Name+"_r"), true
		},
		"Instr.Ty": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			if in.Ty == nil {
				return set(&in.Ty, llvm.I32()), true
			}
			return set(&in.Ty, altType(in.Ty)), true
		},
		"Instr.Args": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			if len(in.Args) == 0 {
				return nil, false
			}
			args := slices.Clone(in.Args)
			args[len(args)-1] = llvm.CI(llvm.I64(), 424242)
			return set(&in.Args, args), true
		},
		"Instr.Pred": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			p := "eq"
			if in.Pred == p {
				p = "ne"
			}
			return set(&in.Pred, p), true
		},
		"Instr.Blocks": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			if len(in.Blocks) == 0 || in.Parent == nil || in.Parent.Parent == nil {
				return nil, false
			}
			blocks := slices.Clone(in.Blocks)
			f := in.Parent.Parent
			next := f.Blocks[0]
			if i := slices.Index(f.Blocks, blocks[0]); i >= 0 {
				next = f.Blocks[(i+1)%len(f.Blocks)]
			}
			blocks[0] = next
			return set(&in.Blocks, blocks), true
		},
		"Instr.Callee": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			c := "sqrt"
			if in.Callee == c {
				c = "callee"
			}
			return set(&in.Callee, c), true
		},
		"Instr.SrcElem": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			if in.SrcElem == nil {
				return set(&in.SrcElem, llvm.I8()), true
			}
			return set(&in.SrcElem, altType(in.SrcElem)), true
		},
		"Instr.Indices": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			return set(&in.Indices, append(slices.Clone(in.Indices), 7)), true
		},
		"Instr.Loop": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			if in.Loop != nil {
				return set(&in.Loop, nil), true
			}
			return set(&in.Loop, &llvm.LoopMD{Pipeline: true, II: 2}), true
		},
		"Instr.Align": func(s any) (func(), bool) {
			in := s.(*llvm.Instr)
			return set(&in.Align, in.Align+8), true
		},

		"Block.Name": func(s any) (func(), bool) {
			b := s.(*llvm.Block)
			return set(&b.Name, b.Name+"_r"), true
		},
		"Block.Instrs": func(s any) (func(), bool) {
			b := s.(*llvm.Block)
			if len(b.Instrs) == 0 {
				return nil, false
			}
			return set(&b.Instrs, b.Instrs[:len(b.Instrs)-1]), true
		},

		"Param.Name": func(s any) (func(), bool) {
			p := s.(*llvm.Param)
			return set(&p.Name, p.Name+"_r"), true
		},
		"Param.Ty": func(s any) (func(), bool) {
			p := s.(*llvm.Param)
			return set(&p.Ty, altType(p.Ty)), true
		},
		"Param.Attrs": func(s any) (func(), bool) {
			p := s.(*llvm.Param)
			return set(&p.Attrs, append(slices.Clone(p.Attrs), "noalias")), true
		},

		"Function.Name": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			return set(&f.Name, f.Name+"_r"), true
		},
		"Function.Ret": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			return set(&f.Ret, altType(f.Ret)), true
		},
		"Function.Params": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			if len(f.Params) == 0 {
				return nil, false
			}
			return set(&f.Params, f.Params[:len(f.Params)-1]), true
		},
		"Function.Blocks": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			if len(f.Blocks) == 0 {
				return nil, false
			}
			return set(&f.Blocks, f.Blocks[:len(f.Blocks)-1]), true
		},
		"Function.Attrs": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			attrs := map[string]string{"hls.unroll": "4"}
			for k, v := range f.Attrs {
				attrs[k] = v
			}
			return set(&f.Attrs, attrs), true
		},
		"Function.IsDecl": func(s any) (func(), bool) {
			f := s.(*llvm.Function)
			return set(&f.IsDecl, !f.IsDecl), true
		},

		"ConstInt.Ty": func(s any) (func(), bool) {
			return constSite(s, func(v llvm.Value) llvm.Value { c := *v.(*llvm.ConstInt); c.Ty = altType(c.Ty); return &c })
		},
		"ConstInt.Val": func(s any) (func(), bool) {
			return constSite(s, func(v llvm.Value) llvm.Value { c := *v.(*llvm.ConstInt); c.Val++; return &c })
		},
		"ConstFloat.Ty": func(s any) (func(), bool) {
			return constSite(s, func(v llvm.Value) llvm.Value { c := *v.(*llvm.ConstFloat); c.Ty = llvm.FloatT(); return &c })
		},
		"ConstFloat.Val": func(s any) (func(), bool) {
			return constSite(s, func(v llvm.Value) llvm.Value {
				c := *v.(*llvm.ConstFloat)
				c.Val = math.Copysign(c.Val, -math.Copysign(1, c.Val))
				return &c
			})
		},
		"Undef.Ty": func(s any) (func(), bool) {
			return constSite(s, func(v llvm.Value) llvm.Value { c := *v.(*llvm.Undef); c.Ty = altType(c.Ty); return &c })
		},

		"Type.Kind": func(s any) (func(), bool) {
			return typeSite(s, func(t *llvm.Type) bool {
				t.Kind = (t.Kind + 1) % (llvm.KindStruct + 1)
				return true
			})
		},
		"Type.Bits": func(s any) (func(), bool) {
			return typeSite(s, func(t *llvm.Type) bool { t.Bits += 8; return true })
		},
		"Type.Elem": func(s any) (func(), bool) {
			return typeSite(s, func(t *llvm.Type) bool {
				if t.Elem == nil {
					t.Elem = llvm.I8()
				} else {
					t.Elem = altType(t.Elem)
				}
				return true
			})
		},
		"Type.N": func(s any) (func(), bool) {
			return typeSite(s, func(t *llvm.Type) bool { t.N++; return true })
		},
		"Type.Fields": func(s any) (func(), bool) {
			return typeSite(s, func(t *llvm.Type) bool { t.Fields = append(slices.Clone(t.Fields), llvm.I8()); return true })
		},
	}
)

// TestKeySeesEveryIRField: every field of the IR structs the compiler
// reads is either exempt by name as bookkeeping or mutated at every site
// in a sample of forms, and after each mutation either the key changed or
// the module still compiles to an Equal program (or both fail alike). A
// field added to one of the structs fails the test until it is classified.
func TestKeySeesEveryIRField(t *testing.T) {
	for _, x := range []any{llvm.Instr{}, llvm.Block{}, llvm.Param{}, llvm.Function{}, llvm.Type{},
		llvm.ConstInt{}, llvm.ConstFloat{}, llvm.Undef{}} {
		rt := reflect.TypeOf(x)
		for i := 0; i < rt.NumField(); i++ {
			name := rt.Name() + "." + rt.Field(i).Name
			if _, ok := irFields[name]; !ok && !exemptFields[name] {
				t.Errorf("field %s is neither mutated nor exempt", name)
			}
		}
	}
	type text struct{ src, top string }
	texts := []text{{keyFieldSample, "k"}}
	forms := loadCheckedForms(t)
	for i := 0; i < len(forms); i += len(forms)/12 + 1 {
		texts = append(texts, text{forms[i].mod.Print(), forms[i].top})
	}
	mutated, changed := 0, 0
	for ti, tx := range texts {
		m, err := parser.Parse(tx.src)
		if err != nil {
			t.Fatal(err)
		}
		top := tx.top
		base, err := interp.CompileFresh(m, top)
		if err != nil {
			t.Fatal(err)
		}
		baseKey, err := interp.ProgramKey(m, top)
		if err != nil {
			t.Fatal(err)
		}
		for name, mut := range irFields {
			kind := name[:strings.IndexByte(name, '.')]
			for si, site := range irSites(m, kind) {
				undo, ok := mut(site)
				if !ok {
					continue
				}
				mutated++
				key, kerr := interp.ProgramKey(m, top)
				if kerr == nil && key != baseKey {
					changed++
				} else {
					p, cerr := interp.CompileFresh(m, top)
					if (kerr == nil) != (cerr == nil) {
						t.Errorf("text %d: %s at site %d: ProgramKey error %v, Compile error %v", ti, name, si, kerr, cerr)
					} else if cerr == nil && !p.Equal(base) {
						t.Errorf("text %d: %s at site %d: key unchanged but the program differs: %s", ti, name, si, interp.Diff(p, base))
					}
				}
				undo()
			}
		}
		if key, err := interp.ProgramKey(m, top); err != nil || key != baseKey {
			t.Fatalf("text %d: undoing the mutations left another key (%v)", ti, err)
		}
	}
	t.Logf("%d mutations over %d modules, %d changed the key", mutated, len(texts), changed)
}

// TestKeyForeignOperands: an operand outside the function — another
// function's instruction or parameter, a detached instruction or
// parameter, a branch to another function's block or to a detached one —
// gets a tag of its own that never aliases a local number, so the key
// differs from the base's, and two variants share a key exactly when they
// compile to Equal programs.
func TestKeyForeignOperands(t *testing.T) {
	const src = `; ModuleID = 't'
; Flavor: modern

define i64 @other(i64 %a) {
entry:
  %o = add i64 %a, 1
  ret i64 %o
}

define i64 @k(i64 %x) {
entry:
  %l = add i64 %x, 2
  %m = add i64 %l, 3
  ret i64 %m
}
`
	type variant struct {
		name string
		edit func(m *llvm.Module)
	}
	local := func(m *llvm.Module) (*llvm.Function, *llvm.Instr) {
		k := m.FindFunc("k")
		return k, k.Blocks[0].Instrs[1] // %m
	}
	other := func(m *llvm.Module) *llvm.Function { return m.FindFunc("other") }
	variants := []variant{
		{"base", func(*llvm.Module) {}},
		{"foreign instruction", func(m *llvm.Module) {
			_, in := local(m)
			in.Args[0] = other(m).Blocks[0].Instrs[0]
		}},
		{"foreign parameter", func(m *llvm.Module) {
			_, in := local(m)
			in.Args[0] = other(m).Params[0]
		}},
		{"detached instruction", func(m *llvm.Module) {
			_, in := local(m)
			in.Args[0] = &llvm.Instr{Op: llvm.OpAdd, Ty: llvm.I64(), ID: 0}
		}},
		{"detached instruction twice", func(m *llvm.Module) {
			_, in := local(m)
			d := &llvm.Instr{Op: llvm.OpAdd, Ty: llvm.I64()}
			in.Args[0], in.Args[1] = d, d
		}},
		{"two detached instructions", func(m *llvm.Module) {
			_, in := local(m)
			in.Args[0] = &llvm.Instr{Op: llvm.OpAdd, Ty: llvm.I64()}
			in.Args[1] = &llvm.Instr{Op: llvm.OpAdd, Ty: llvm.I64()}
		}},
		{"detached parameter", func(m *llvm.Module) {
			_, in := local(m)
			in.Args[0] = &llvm.Param{Name: "x", Ty: llvm.I64()}
		}},
		{"foreign block", func(m *llvm.Module) {
			k, _ := local(m)
			ret := k.Blocks[0].Instrs[2]
			*ret = llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{other(m).Blocks[0]}, Parent: ret.Parent, ID: ret.ID}
		}},
		{"detached block", func(m *llvm.Module) {
			k, _ := local(m)
			ret := k.Blocks[0].Instrs[2]
			*ret = llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{{Name: "entry"}}, Parent: ret.Parent, ID: ret.ID}
		}},
		{"local block", func(m *llvm.Module) {
			k, _ := local(m)
			ret := k.Blocks[0].Instrs[2]
			*ret = llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{k.Blocks[0]}, Parent: ret.Parent, ID: ret.ID}
		}},
	}
	keys := make([][32]byte, len(variants))
	progs := make([]*interp.Program, len(variants))
	for i, v := range variants {
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		v.edit(m)
		if keys[i], err = interp.ProgramKey(m, "k"); err != nil {
			t.Fatal(err)
		}
		if progs[i], err = interp.CompileFresh(m, "k"); err != nil {
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
	if keys[4] == keys[5] {
		t.Error("one detached instruction read twice keys like two detached instructions")
	}
}
