package cfront

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
)

const gemmC = `
// Generated by emit-hlscpp
void gemm(float A[4][4], float B[4][4], float C[4][4]) {
#pragma HLS interface ap_memory port=A
#pragma HLS interface ap_memory port=B
#pragma HLS interface ap_memory port=C
  for (int i = 0; i < 4; i += 1) {
    for (int j = 0; j < 4; j += 1) {
      for (int k = 0; k < 4; k += 1) {
#pragma HLS pipeline II=1
        float a = A[i][k];
        float b = B[k][j];
        float c = C[i][j];
        float p = a * b;
        float s = c + p;
        C[i][j] = s;
      }
    }
  }
}
`

func TestParseGemm(t *testing.T) {
	f, err := ParseC(gemmC)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 1 || f.Funcs[0].Name != "gemm" {
		t.Fatal("function not parsed")
	}
	fn := f.Funcs[0]
	if len(fn.Params) != 3 {
		t.Fatalf("want 3 params, got %d", len(fn.Params))
	}
	if len(fn.Params[0].Dims) != 2 || fn.Params[0].Dims[0] != 4 {
		t.Error("array dims lost")
	}
	if len(fn.Pragmas) != 3 {
		t.Errorf("want 3 function pragmas, got %d", len(fn.Pragmas))
	}
	outer, ok := fn.Body[0].(*ForStmt)
	if !ok {
		t.Fatal("body should start with for")
	}
	inner := outer.Body[0].(*ForStmt).Body[0].(*ForStmt)
	if len(inner.Pragmas) != 1 || inner.Pragmas[0].Kind != "pipeline" {
		t.Errorf("pipeline pragma not attached to k-loop: %+v", inner.Pragmas)
	}
	if inner.Pragmas[0].II != "1" {
		t.Error("II option lost")
	}
}

func TestCompileGemmExecutes(t *testing.T) {
	m, err := Compile(gemmC, Options{Top: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Flavor != llvm.FlavorHLS {
		t.Error("cfront must produce HLS-flavored IR")
	}
	f := m.FindFunc("gemm")
	if f == nil {
		t.Fatal("gemm missing")
	}
	if f.Attrs["hls.top"] != "1" {
		t.Error("top attribute missing")
	}
	// mem2reg must have removed all scalar allocas.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca && !in.SrcElem.IsArray() {
				t.Errorf("unpromoted scalar alloca %%%s", in.Name)
			}
		}
	}
	// Execute 4x4 gemm and check one known product.
	mk := func() *interp.Mem { return interp.NewMem(4 * 4 * 4) }
	A, B, C := mk(), mk(), mk()
	for i := 0; i < 16; i++ {
		A.SetFloat32(i, float32(i+1))
		B.SetFloat32(i, 1)
	}
	machine := interp.NewMachine(m)
	if _, _, err := machine.Run(context.Background(), "gemm",
		interp.PtrArg(A, 0), interp.PtrArg(B, 0), interp.PtrArg(C, 0)); err != nil {
		t.Fatal(err)
	}
	got := C.Float32Slice()
	// C[0][0] = sum_k A[0][k]*1 = 1+2+3+4 = 10.
	if got[0] != 10 {
		t.Errorf("C[0][0] = %g, want 10", got[0])
	}
	// C[3][3] = A[3][0..3] = 13+14+15+16 = 58.
	if got[15] != 58 {
		t.Errorf("C[3][3] = %g, want 58", got[15])
	}
}

func TestCompiledGemmIsHLSReadable(t *testing.T) {
	m, err := Compile(gemmC, Options{Top: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	if vs := hls.Check(m); len(vs) != 0 {
		t.Fatalf("cfront output should be HLS readable, got %v", vs)
	}
	rep, err := hls.Synthesize(m, "gemm", hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 3 {
		t.Errorf("want 3 loops, got %d", len(rep.Loops))
	}
	piped := 0
	for _, l := range rep.Loops {
		if l.Pipelined {
			piped++
		}
	}
	if piped != 1 {
		t.Errorf("pipeline pragma should reach synthesis: %d pipelined loops", piped)
	}
}

func TestLoopMetadataFromPragma(t *testing.T) {
	m, err := Compile(gemmC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, b := range m.FindFunc("gemm").Blocks {
		for _, in := range b.Instrs {
			if in.Loop != nil {
				found++
				if !in.Loop.Pipeline || in.Loop.II != 1 {
					t.Errorf("wrong loop metadata: %+v", in.Loop)
				}
			}
		}
	}
	if found != 1 {
		t.Errorf("want 1 latch with metadata, got %d", found)
	}
}

func TestIfElseAndTernary(t *testing.T) {
	src := `
void clamp(float x[8], float y[8]) {
  for (int i = 0; i < 8; i += 1) {
    float v = x[i];
    if (v < 0.0) {
      y[i] = 0.0;
    } else {
      y[i] = v > 1.0 ? 1.0 : v;
    }
  }
}
`
	m, err := Compile(src, Options{Top: "clamp"})
	if err != nil {
		t.Fatal(err)
	}
	x := interp.NewMem(32)
	y := interp.NewMem(32)
	vals := []float32{-1, 0.5, 2, 0, 1, -0.1, 0.9, 3}
	for i, v := range vals {
		x.SetFloat32(i, v)
	}
	machine := interp.NewMachine(m)
	if _, _, err := machine.Run(context.Background(), "clamp", interp.PtrArg(x, 0), interp.PtrArg(y, 0)); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0.5, 1, 0, 1, 0, 0.9, 1}
	got := y.Float32Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clamp[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLocalArrayAndCompoundAssign(t *testing.T) {
	src := `
void hist(int in[16], int out[4]) {
  int tmp[4];
  for (int i = 0; i < 4; i += 1) {
    tmp[i] = 0;
  }
  for (int i = 0; i < 16; i += 1) {
    int b = in[i] % 4;
    tmp[b] += 1;
  }
  for (int i = 0; i < 4; i += 1) {
    out[i] = tmp[i];
  }
}
`
	m, err := Compile(src, Options{Top: "hist"})
	if err != nil {
		t.Fatal(err)
	}
	in := interp.NewMem(64)
	out := interp.NewMem(16)
	for i := 0; i < 16; i++ {
		in.SetInt32(i, int32(i))
	}
	machine := interp.NewMachine(m)
	if _, _, err := machine.Run(context.Background(), "hist", interp.PtrArg(in, 0), interp.PtrArg(out, 0)); err != nil {
		t.Fatal(err)
	}
	got := out.Int32Slice()
	for i := 0; i < 4; i++ {
		if got[i] != 4 {
			t.Errorf("hist[%d] = %d, want 4", i, got[i])
		}
	}
}

func TestMathCalls(t *testing.T) {
	src := `
void roots(double x[4]) {
  for (int i = 0; i < 4; i += 1) {
    x[i] = sqrt(x[i]);
  }
}
`
	m, err := Compile(src, Options{Top: "roots"})
	if err != nil {
		t.Fatal(err)
	}
	if vs := hls.Check(m); len(vs) != 0 {
		t.Fatalf("libm call should be readable: %v", vs)
	}
	mem := interp.NewMem(32)
	for i := 0; i < 4; i++ {
		mem.SetFloat64(i, float64((i+2)*(i+2)))
	}
	machine := interp.NewMachine(m)
	if _, _, err := machine.Run(context.Background(), "roots", interp.PtrArg(mem, 0)); err != nil {
		t.Fatal(err)
	}
	got := mem.Float64Slice()
	for i := 0; i < 4; i++ {
		if got[i] != float64(i+2) {
			t.Errorf("roots[%d] = %g", i, got[i])
		}
	}
}

func TestArrayPartitionPragma(t *testing.T) {
	src := `
void k(float A[8]) {
#pragma HLS interface ap_memory port=A
#pragma HLS array_partition variable=A cyclic factor=2 dim=1
  for (int i = 0; i < 8; i += 1) {
    A[i] = A[i] + 1.0f;
  }
}
`
	m, err := Compile(src, Options{Top: "k"})
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("k")
	if got := f.Attrs["hls.array_partition.arg0"]; got != "cyclic,2,0" {
		t.Errorf("partition attr = %q, want cyclic,2,0", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"non-void", "int f() { return; }"},
		{"bad for", "void f() { for (i = 0; i < 4; i += 1) {} }"},
		{"undefined var", "void f() { x = 1; }"},
		{"missing semi", "void f() { int x = 1 }"},
		{"float mod", "void f(float a[2]) { for (int i = 0; i < 2; i += 1) { a[i] = a[i] % 2.0; } }"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile(c.src, Options{}); err == nil {
				t.Errorf("expected error for %s", c.name)
			}
		})
	}
}

func TestIntCountersCauseSext(t *testing.T) {
	// The baseline flow's characteristic artifact: C int counters widen to
	// i64 at each subscript.
	m, err := Compile(gemmC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	txt := m.Print()
	if !strings.Contains(txt, "sext i32") {
		t.Errorf("expected sign extensions from int subscripts:\n%s", txt)
	}
}
