package parser_test

import (
	"strings"
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/parser"
)

func TestParseDeclaration(t *testing.T) {
	src := `
declare double @sqrt(double %x)

define void @f(double* %p) {
entry:
  %v = load double, double* %p
  %r = call double @sqrt(double %v)
  store double %r, double* %p
  ret void
}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := m.FindFunc("sqrt")
	if d == nil || !d.IsDecl {
		t.Fatal("declaration not parsed")
	}
	if m.Flavor != llvm.FlavorHLS {
		t.Error("typed pointers should select HLS flavor")
	}
	roundTrip(t, m)
}

func TestParseStructAndAggregateOps(t *testing.T) {
	src := `
define void @agg({ i64, double } %pair, double* %out) {
entry:
  %x = extractvalue { i64, double } %pair, 1
  store double %x, double* %out
  ret void
}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("agg")
	if !f.Params[0].Ty.IsStruct() || len(f.Params[0].Ty.Fields) != 2 {
		t.Errorf("struct param type lost: %s", f.Params[0].Ty)
	}
	var ev *llvm.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == llvm.OpExtractValue {
			ev = in
		}
	}
	if ev == nil || len(ev.Indices) != 1 || ev.Indices[0] != 1 {
		t.Fatalf("extractvalue indices lost: %+v", ev)
	}
	if ev.Ty.Kind != llvm.KindDouble {
		t.Errorf("extractvalue result type = %s", ev.Ty)
	}
	roundTrip(t, m)
}

func TestParseSelectAndCasts(t *testing.T) {
	src := `
define void @sc(i32* %p, i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  %w = sext i32 %x to i64
  %n = trunc i64 %w to i32
  %fp = sitofp i32 %n to double
  %back = fptosi double %fp to i32
  %sel = select i1 %c, i32 %back, i32 0
  store i32 %sel, i32* %p
  ret void
}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m)
	txt := m.Print()
	for _, want := range []string{"select i1", "sext i32", "trunc i64", "sitofp", "fptosi"} {
		if !strings.Contains(txt, want) {
			t.Errorf("missing %q in reprint", want)
		}
	}
}

func TestParseUnreachableAndAlign(t *testing.T) {
	src := `
define void @u(float* %p) {
entry:
  %a = alloca [4 x float], align 16
  %g = getelementptr inbounds [4 x float], [4 x float]* %a, i64 0, i64 0
  %v = load float, float* %g, align 4
  store float %v, float* %p, align 4
  ret void
dead:
  unreachable
}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("u")
	var alloca *llvm.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == llvm.OpAlloca {
			alloca = in
		}
	}
	if alloca == nil || alloca.Align != 16 {
		t.Errorf("alloca align lost: %+v", alloca)
	}
	roundTrip(t, m)
}

func TestParseNegativeAndScientificFloats(t *testing.T) {
	src := `
define void @consts(double* %p) {
entry:
  %a = fadd double -1.5e+00, 2.5e-01
  %b = fmul double %a, 1.2000000476837158e+00
  store double %b, double* %p
  ret void
}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("consts")
	add := f.Entry().Instrs[0]
	c0 := add.Args[0].(*llvm.ConstFloat)
	if c0.Val != -1.5 {
		t.Errorf("negative float constant = %g", c0.Val)
	}
	roundTrip(t, m)
}

func TestParseUnrollMetadata(t *testing.T) {
	src := `
define void @um(i64* %p) {
entry:
  br label %h
h:
  %iv = phi i64 [ 0, %entry ], [ %n, %b ]
  %c = icmp slt i64 %iv, 8
  br i1 %c, label %b, label %e
b:
  store i64 %iv, i64* %p
  %n = add i64 %iv, 1
  br label %h, !llvm.loop !0
e:
  ret void
}

!0 = distinct !{!0, !"llvm.loop.unroll.count", i32 4, !"llvm.loop.flatten.enable", i1 true}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range m.FindFunc("um").Blocks {
		for _, in := range b.Instrs {
			if in.Loop != nil {
				found = true
				if in.Loop.Unroll != 4 || !in.Loop.Flatten {
					t.Errorf("metadata payload wrong: %+v", in.Loop)
				}
			}
		}
	}
	if !found {
		t.Error("unroll metadata lost")
	}
	roundTrip(t, m)
}

// TestParseHonoursFlavorLine parses a module whose signatures name no
// pointer, so only its printed "; Flavor:" line carries its flavor: both
// flavors must survive print → parse, and text without the line still has
// its flavor inferred.
func TestParseHonoursFlavorLine(t *testing.T) {
	for _, flavor := range []string{llvm.FlavorHLS, llvm.FlavorModern} {
		m := llvm.NewModule("scalar")
		m.Flavor = flavor
		i32 := llvm.I32()
		f := m.AddFunc(llvm.NewFunction("k", llvm.Void(), &llvm.Param{Name: "a", Ty: i32}))
		b := llvm.NewBuilder(f)
		b.SetBlock(f.AddBlock("entry"))
		b.Add(f.Params[0], llvm.CI(i32, 1))
		b.Ret(nil)
		text := m.Print()
		back, err := parser.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if back.Flavor != flavor {
			t.Errorf("%s module parsed back as %s", flavor, back.Flavor)
		}
		if got := back.Print(); got != text {
			t.Errorf("%s module prints differently after parsing:\n%s\nvs\n%s", flavor, got, text)
		}
	}
	for src, want := range map[string]string{
		"define void @k(i32 %a) {\nentry:\n  ret void\n}\n":                   llvm.FlavorModern,
		"define void @k(i32* %a) {\nentry:\n  ret void\n}\n":                  llvm.FlavorHLS,
		"; Flavor: bogus\ndefine void @k(i32* %a) {\nentry:\n  ret void\n}\n": llvm.FlavorHLS,
		"define void @k(i32 %a) {\nentry:\n; Flavor: hls\n  ret void\n}\n":    llvm.FlavorModern,
	} {
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if m.Flavor != want {
			t.Errorf("%q parsed as %s, want %s", src, m.Flavor, want)
		}
	}
}
