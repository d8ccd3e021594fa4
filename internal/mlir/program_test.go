package mlir_test

import (
	"strings"
	"testing"

	"repro/internal/mlir"
	"repro/internal/mlir/parser"
)

// programBase is a small kernel touching every construct whose details the
// program equality must see.
const programBase = `module {
  func.func @k(%arg0: memref<8xf32>, %arg1: memref<8xi32>) attributes {hls.top} {
    affine.for %0 = 0 to 8 step 1 {
      %1 = affine.load %arg0[%0] : memref<8xf32>
      %2 = arith.constant 0.0 : f32
      %3 = arith.addf %1, %2 : f32
      %4 = arith.constant 0.5 : f32
      %5 = arith.cmpf olt, %3, %4 : f32
      %6 = arith.select %5, %3, %4 : f32
      affine.store %6, %arg0[%0] : memref<8xf32>
      %7 = affine.load %arg1[%0] map affine_map<(d0) -> (d0 * 1)> : memref<8xi32>
      %8 = arith.constant 3 : i32
      %9 = arith.addi %7, %8 : i32
      affine.store %9, %arg1[%0] : memref<8xi32>
    } {hls.ii = 1, hls.pipeline}
    func.return
  }
}
`

// compileKeyed compiles @k of src and returns the program with the
// module's program key.
func compileKeyed(t *testing.T, src string) (*mlir.Program, [32]byte) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	key, err := m.ProgramKey("k")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Compile("k")
	if err != nil {
		t.Fatal(err)
	}
	return p, key
}

func edit(t *testing.T, pairs ...string) string {
	t.Helper()
	src := programBase
	for i := 0; i < len(pairs); i += 2 {
		if !strings.Contains(src, pairs[i]) {
			t.Fatalf("edit %q does not match the base", pairs[i])
		}
		src = strings.ReplaceAll(src, pairs[i], pairs[i+1])
	}
	return src
}

// TestProgramDistinguishesExecutionDetails: changing any one detail that
// execution depends on yields a program that is not Equal to the base, and
// a module with another program key.
func TestProgramDistinguishesExecutionDetails(t *testing.T) {
	base, baseKey := compileKeyed(t, programBase)
	for _, c := range []struct {
		name  string
		pairs []string
	}{
		{"opcode", []string{"arith.addf", "arith.subf"}},
		{"predicate", []string{"cmpf olt", "cmpf ole"}},
		{"negative zero", []string{"arith.constant 0.0 : f32", "arith.constant -0.0 : f32"}},
		{"integer constant", []string{"arith.constant 3 : i32", "arith.constant 4 : i32"}},
		{"memref element width", []string{"xi32>", "xi64>", "i32", "i64"}},
		{"affine coefficient", []string{"(d0 * 1)", "(d0 * 2)"}},
		{"loop step", []string{"step 1", "step 2"}},
		{"loop bound", []string{"0 to 8", "0 to 7"}},
	} {
		p, key := compileKeyed(t, edit(t, c.pairs...))
		if p.Equal(base) {
			t.Errorf("%s: changed module compiles to an equal program", c.name)
		}
		if key == baseKey {
			t.Errorf("%s: changed module has the base's program key", c.name)
		}
	}
}

// TestProgramIgnoresNonExecutedDetails: hls.* directive attributes and the
// textual value names never reach a program or its key.
func TestProgramIgnoresNonExecutedDetails(t *testing.T) {
	base, baseKey := compileKeyed(t, programBase)
	for _, c := range []struct {
		name  string
		pairs []string
	}{
		{"hls attributes", []string{" attributes {hls.top}", "", " {hls.ii = 1, hls.pipeline}", " {hls.unroll = 4}"}},
		{"value names", []string{"%9", "%sum", "%7", "%elem"}},
	} {
		p, key := compileKeyed(t, edit(t, c.pairs...))
		if !p.Equal(base) {
			t.Errorf("%s: module compiles to a different program", c.name)
		}
		if key != baseKey {
			t.Errorf("%s: module has another program key", c.name)
		}
	}
}

// TestRecycledDiagnostics: a program compiled into a released program's
// storage carries its own errors, never the released program's.
func TestRecycledDiagnostics(t *testing.T) {
	a, b := edit(t, "cmpf olt", "cmpf une"), programBase
	parse := func(src string) *mlir.Module {
		t.Helper()
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		return m
	}
	for _, m := range [][2]*mlir.Module{{parse(a), parse(b)}, {parse(b), parse(a)}} {
		prev, err := m[0].Compile("k")
		if err != nil {
			t.Fatal(err)
		}
		prev.Release()
		got, err := m[1].Compile("k")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := m[1].CompileFresh("k")
		if err != nil {
			t.Fatal(err)
		}
		if d := mlir.Diff(got, fresh); d != "" {
			t.Errorf("recycled program differs from a fresh compile: %s", d)
		}
	}
}
