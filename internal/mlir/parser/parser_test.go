package parser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mlir"
)

func parseOrFatal(t *testing.T, src string) *mlir.Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("parsed module fails verification: %v\nsource:\n%s", err, src)
	}
	return m
}

// roundTrip asserts print(parse(print(m))) == print(m).
func roundTrip(t *testing.T, m *mlir.Module) {
	t.Helper()
	first := m.Print()
	m2, err := Parse(first)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, first)
	}
	second := m2.Print()
	if first != second {
		t.Fatalf("round trip not stable.\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("round-tripped module fails verification: %v", err)
	}
}

func TestParseSimpleFunc(t *testing.T) {
	src := `
module {
  func.func @axpy(%arg0: memref<8xf32>, %arg1: memref<8xf32>) {
    %0 = arith.constant 2.0 : f32
    affine.for %1 = 0 to 8 step 1 {
      %2 = affine.load %arg0[%1] : memref<8xf32>
      %3 = arith.mulf %0, %2 : f32
      %4 = affine.load %arg1[%1] : memref<8xf32>
      %5 = arith.addf %3, %4 : f32
      affine.store %5, %arg1[%1] : memref<8xf32>
    }
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	f := m.FindFunc("axpy")
	if f == nil {
		t.Fatal("axpy not found")
	}
	roundTrip(t, m)
}

// TestVerifyRejectsEscapedLoopValues moves the loop body's store after the
// affine.for of TestParseSimpleFunc: it then uses the body's %2 and the
// induction variable outside their region, which structural dominance
// forbids.
func TestVerifyRejectsEscapedLoopValues(t *testing.T) {
	src := `
module {
  func.func @axpy(%arg0: memref<8xf32>, %arg1: memref<8xf32>) {
    %0 = arith.constant 2.0 : f32
    affine.for %1 = 0 to 8 step 1 {
      %2 = affine.load %arg0[%1] : memref<8xf32>
      %3 = arith.mulf %0, %2 : f32
      %4 = affine.load %arg1[%1] : memref<8xf32>
      %5 = arith.addf %3, %4 : f32
      affine.store %5, %arg1[%1] : memref<8xf32>
    }
    affine.store %2, %arg1[%1] : memref<8xf32>
    func.return
  }
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	err = m.Verify()
	if err == nil || !strings.Contains(err.Error(), "does not dominate use") {
		t.Fatalf("Verify = %v, want a value that does not dominate its use", err)
	}
}

func TestParseAttrsAndDirectives(t *testing.T) {
	src := `
module {
  func.func @k(%arg0: memref<4x4xf64>) attributes {hls.top} {
    affine.for %0 = 0 to 4 step 1 {
      affine.for %1 = 0 to 4 step 1 {
        %2 = affine.load %arg0[%0, %1] : memref<4x4xf64>
        affine.store %2, %arg0[%1, %0] : memref<4x4xf64>
      } {hls.ii = 1, hls.pipeline}
    } {hls.unroll = 2}
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	f := m.FindFunc("k")
	if !f.HasAttr(mlir.AttrTopFunc) {
		t.Error("hls.top attribute lost")
	}
	outer, _ := mlir.AsAffineFor(mlir.FuncBody(f).Ops[0])
	if v, ok := outer.Op.IntAttr(mlir.AttrUnroll); !ok || v != 2 {
		t.Error("hls.unroll lost")
	}
	inner, _ := mlir.AsAffineFor(outer.Body().Ops[0])
	if !inner.Op.HasAttr(mlir.AttrPipeline) {
		t.Error("hls.pipeline lost")
	}
	if ii, ok := inner.Op.IntAttr(mlir.AttrII); !ok || ii != 1 {
		t.Error("hls.ii lost")
	}
	roundTrip(t, m)
}

func TestParseAffineMapBounds(t *testing.T) {
	src := `
module {
  func.func @tri(%arg0: memref<8x8xf32>) {
    affine.for %0 = 0 to 8 step 1 {
      affine.for %1 = affine_map<(d0) -> (d0)>(%0) to 8 step 1 {
        %2 = affine.load %arg0[%0, %1] : memref<8x8xf32>
        affine.store %2, %arg0[%0, %1] : memref<8x8xf32>
      }
    }
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	outer, _ := mlir.AsAffineFor(mlir.FuncBody(m.FindFunc("tri")).Ops[0])
	inner, ok := mlir.AsAffineFor(outer.Body().Ops[0])
	if !ok {
		t.Fatal("inner loop missing")
	}
	if len(inner.LowerOperands()) != 1 || inner.LowerOperands()[0] != outer.IV() {
		t.Error("lower bound operand should be the outer IV")
	}
	if _, ok := inner.ConstantTripCount(); ok {
		t.Error("triangular loop should not have a constant trip count")
	}
	roundTrip(t, m)
}

func TestParseAffineAccessMap(t *testing.T) {
	src := `
module {
  func.func @sten(%arg0: memref<16xf32>) {
    affine.for %0 = 1 to 15 step 1 {
      %1 = affine.load %arg0[%0] map affine_map<(d0) -> ((d0 - 1))> : memref<16xf32>
      %2 = affine.load %arg0[%0] map affine_map<(d0) -> ((d0 + 1))> : memref<16xf32>
      %3 = arith.addf %1, %2 : f32
      affine.store %3, %arg0[%0] : memref<16xf32>
    }
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	var loads []*mlir.Op
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAffineLoad {
			loads = append(loads, o)
		}
		return true
	})
	if len(loads) != 2 {
		t.Fatalf("want 2 loads, got %d", len(loads))
	}
	m0 := mlir.AffineAccessView{Op: loads[0]}.Map()
	if got := m0.Eval([]int64{5}, nil)[0]; got != 4 {
		t.Errorf("d0-1 map eval(5) = %d", got)
	}
	roundTrip(t, m)
}

func TestParseSCFAndCF(t *testing.T) {
	src := `
module {
  func.func @scfcf(%arg0: memref<4xf32>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    scf.for %3 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%3] : memref<4xf32>
      memref.store %4, %arg0[%3] : memref<4xf32>
    }
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	roundTrip(t, m)
}

func TestParseMultiBlockCF(t *testing.T) {
	src := `
module {
  func.func @loop(%arg0: memref<4xi32>) {
  ^bb0:
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    cf.br ^bb1(%0)
  ^bb1(%3: index):
    %4 = arith.cmpi slt, %3, %1 : index
    cf.cond_br %4, ^bb2, ^bb3
  ^bb2:
    %5 = memref.load %arg0[%3] : memref<4xi32>
    memref.store %5, %arg0[%3] : memref<4xi32>
    %6 = arith.addi %3, %2 : index
    cf.br ^bb1(%6)
  ^bb3:
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	f := m.FindFunc("loop")
	if n := len(f.Regions[0].Blocks); n != 4 {
		t.Fatalf("want 4 blocks, got %d", n)
	}
	roundTrip(t, m)
}

func TestParseScfIf(t *testing.T) {
	src := `
module {
  func.func @cond(%arg0: memref<4xf32>, %arg1: index) {
    %0 = arith.constant 0 : index
    %1 = arith.cmpi eq, %arg1, %0 : index
    scf.if %1 {
      %2 = arith.constant 1.0 : f32
      memref.store %2, %arg0[%0] : memref<4xf32>
    } else {
      %3 = arith.constant 2.0 : f32
      memref.store %3, %arg0[%0] : memref<4xf32>
    }
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	roundTrip(t, m)
}

func TestParseCallAndReturnValue(t *testing.T) {
	src := `
module {
  func.func @helper(%arg0: f32) -> (f32) {
    %0 = arith.mulf %arg0, %arg0 : f32
    func.return %0 : f32
  }
  func.func @main(%arg0: f32) -> (f32) {
    %0 = func.call @helper(%arg0) : (f32) -> (f32)
    func.return %0 : f32
  }
}
`
	m := parseOrFatal(t, src)
	if len(m.Funcs()) != 2 {
		t.Fatal("expected two functions")
	}
	roundTrip(t, m)
}

func TestParseGenericOp(t *testing.T) {
	src := `
module {
  func.func @g(%arg0: f32) {
    %0 = "mydialect.magic"(%arg0) {level = 3} : (f32) -> (f32)
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	var magic *mlir.Op
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == "mydialect.magic" {
			magic = o
		}
		return true
	})
	if magic == nil {
		t.Fatal("generic op lost")
	}
	if v, ok := magic.IntAttr("level"); !ok || v != 3 {
		t.Error("generic op attr lost")
	}
	roundTrip(t, m)
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // the error's text, when pinned
	}{
		{"missing module", `func.func @x() { func.return }`, ""},
		{"undefined value", `module { func.func @x() { %0 = arith.addi %9, %9 : i32 func.return } }`, ""},
		{"unterminated", `module { func.func @x() {`, ""},
		{"bad type", `module { func.func @x(%arg0: banana) { func.return } }`, ""},
		{"bad op", `module { func.func @x() { arith.frobnicate } }`, ""},
	}
	// Types some layer cannot run are rejected where they are spelled, not
	// retyped (f16 used to parse as f32) or left to fail downstream.
	for _, ty := range []string{"f16", "f8", "f0", "f128", "i0", "i8", "i16", "i48", "i65", "i128", "none"} {
		cases = append(cases, struct{ name, src, want string }{"scalar " + ty,
			`module { func.func @x(%arg0: ` + ty + `) { func.return } }`,
			`parse error at line 1 col 30 (near "` + ty + `"): unsupported type "` + ty +
				`" (scalars are index, i1, i32, i64, f32, f64)`})
	}
	for _, ty := range []string{"i1", "i8", "i16", "i48", "i0", "i65", "i128", "index", "f16", "f128"} {
		cases = append(cases, struct{ name, src, want string }{"memref of " + ty,
			`module { func.func @x(%arg0: memref<4x` + ty + `>) { func.return } }`,
			`parse error at line 1 col 30 (near "memref"): unsupported memref<4x` + ty +
				`> (elements are i32, i64, f32, f64)`})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected parse error for %s", c.name)
			}
			if c.want != "" && err.Error() != c.want {
				t.Errorf("got %q, want %q", err, c.want)
			}
		})
	}
}

// TestParseAcceptedTypes parses every type the stack runs, as a scalar and
// as a memref element where it may be one, and prints it back unchanged.
func TestParseAcceptedTypes(t *testing.T) {
	for _, ty := range []string{"index", "i1", "i32", "i64", "f32", "f64",
		"memref<4xi32>", "memref<4xi64>", "memref<2x?xf32>", "memref<4xf64>"} {
		src := "module {\n  func.func @x(%arg0: " + ty + ") {\n    func.return\n  }\n}\n"
		m := parseOrFatal(t, src)
		if got := mlir.FuncBody(m.Funcs()[0]).Args[0].Type().String(); got != ty {
			t.Errorf("%s parsed as %s", ty, got)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
module {
  // a function
  func.func @c() {
    func.return // trailing
  }
}
`
	parseOrFatal(t, src)
}

func TestParseNegativeAndFloatConstants(t *testing.T) {
	src := `
module {
  func.func @n() {
    %0 = arith.constant -5 : i32
    %1 = arith.constant 1.5 : f32
    %2 = arith.constant 2.5e-06 : f64
    %3 = arith.constant -0.125 : f64
    func.return
  }
}
`
	m := parseOrFatal(t, src)
	var consts []*mlir.Op
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpConstant {
			consts = append(consts, o)
		}
		return true
	})
	if len(consts) != 4 {
		t.Fatalf("want 4 constants, got %d", len(consts))
	}
	if a := consts[0].Attr(mlir.AttrValue).(mlir.IntAttr); a.Value != -5 {
		t.Errorf("const0 = %d", a.Value)
	}
	if a := consts[2].Attr(mlir.AttrValue).(mlir.FloatAttr); a.Value != 2.5e-06 {
		t.Errorf("const2 = %g", a.Value)
	}
	roundTrip(t, m)
}

// randomModule builds a random-but-valid module for round-trip fuzzing.
func randomModule(seed int64) *mlir.Module {
	r := rand.New(rand.NewSource(seed))
	m := mlir.NewModule()
	n := int64(r.Intn(14) + 2)
	ty := mlir.MemRef([]int64{n, n}, mlir.F32())
	_, args := m.AddFunc("rand", []*mlir.Type{ty, ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("rand")))
	b.AffineForConst(0, n, 1, func(b *mlir.Builder, i *mlir.Value) {
		b.AffineForConst(0, n, 1, func(b *mlir.Builder, j *mlir.Value) {
			v := b.AffineLoad(args[0], i, j)
			for k := 0; k < r.Intn(4); k++ {
				switch r.Intn(3) {
				case 0:
					v = b.AddF(v, v)
				case 1:
					v = b.MulF(v, v)
				default:
					v = b.NegF(v)
				}
			}
			b.AffineStore(v, args[1], i, j)
		})
	})
	b.Return()
	return m
}

func TestRoundTripRandomModules(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		m := randomModule(seed)
		if err := m.Verify(); err != nil {
			t.Fatalf("seed %d: invalid random module: %v", seed, err)
		}
		roundTrip(t, m)
	}
}

func TestPrintParseStableOnNestedAttrs(t *testing.T) {
	m := mlir.NewModule()
	f, _ := m.AddFunc("attrs", nil, nil)
	f.SetAttr("arr", mlir.ArrayAttr{mlir.I(1), mlir.StringAttr("two"), mlir.BoolAttr(true)})
	b := mlir.NewBuilder(mlir.FuncBody(f))
	b.Return()
	roundTrip(t, m)
	out := m.Print()
	if !strings.Contains(out, `arr = [1, "two", true]`) {
		t.Errorf("array attr not printed as expected:\n%s", out)
	}
}
