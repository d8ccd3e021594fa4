package parser_test

import (
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
)

// mlirFuzzSeeds cover the syntax forms kernels do not print: cf-level
// blocks, scf, the generic form with attributes and regions, and inputs
// the parser must reject with an error.
var mlirFuzzSeeds = []string{
	"",
	"module {\n}\n",
	`module {
  func.func @f(%arg0: memref<8xf32>, %arg1: index) -> (f32) attributes {hls.top, hls.array_partition.arg0 = ["cyclic", 2, 0]} {
    %0 = arith.constant 1.5 : f32
    %1 = affine.load %arg0[%arg1, %arg1] map affine_map<(d0)[s0] -> ((d0 + s0) mod 8)> : memref<8xf32>
    %2 = arith.cmpf olt, %0, %1 : f32
    %3 = arith.select %2, %0, %1 : f32
    %4 = "test.op"(%3) {k = 3 : i32, s = "x"} : (f32) -> (f32)
    func.return %4 : f32
  }
}
`,
	`module {
  func.func @g(%arg0: index) {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    cf.br ^bb1(%c0)
  ^bb1(%0: index):
    %1 = arith.cmpi slt, %0, %arg0 : index
    cf.cond_br %1, ^bb2, ^bb3
  ^bb2:
    %2 = arith.addi %0, %c1 : index
    cf.br ^bb1(%2) {hls.pipeline, hls.ii = 1}
  ^bb3:
    func.return
  }
}
`,
	`module {
  func.func @h(%arg0: index, %arg1: memref<4x4xf64>) {
    %c0 = arith.constant 0 : index
    %c4 = arith.constant 4 : index
    %c1 = arith.constant 1 : index
    scf.for %0 = %c0 to %c4 step %c1 {
      %1 = arith.cmpi sge, %0, %arg0 : index
      scf.if %1 {
        %2 = memref.load %arg1[%0, %0] : memref<4x4xf64>
        memref.store %2, %arg1[%0, %c0] : memref<4x4xf64>
      } else {
      }
    } {hls.unroll = 2}
    func.return
  }
}
`,
	"module {\n  func.func @f(%arg0: index) {\n    %0 = affine.apply affine_map<(d0) -> (d1)>(%arg0)\n    func.return\n  }\n}\n",
	"module {\n  func.func @f(%arg0: index) {\n    %0 = affine.apply affine_map<(d0, d1) -> (d0 * d1)>(%arg0, %arg0)\n    func.return\n  }\n}\n",
	"module {\n  func.func @f(%arg0: index) {\n    %0 = affine.apply affine_map<(d0) -> (d0 floordiv 0)>(%arg0)\n    func.return\n  }\n}\n",
	"module {\n  func.func @f() {\n" + strings.Repeat("affine.for %i = 0 to 2 {\n", 300) + strings.Repeat("}\n", 300) + "func.return\n}\n}\n",
	"module {\n  func.func @f(",
	"module {\n  func.func @f(%arg0: memref<-5xf32>) {\n    func.return\n  }\n}\n",
	"module {\n  func.func @f(%arg0: memref<4x-1xf32>) {\n    func.return\n  }\n}\n",
}

// FuzzMLIRParse drives Parse with arbitrary input, which must parse or fail
// with an error, never panic. A module that parses and verifies must print,
// re-parse and print identically: print is the parser's inverse on its
// own output. The seeds add every polybench kernel at MINI and the kgen
// corpus to the hand-written forms.
func FuzzMLIRParse(f *testing.F) {
	for _, s := range mlirFuzzSeeds {
		f.Add(s)
	}
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(k.Build(s).Print())
	}
	for _, seed := range kgen.CorpusSeeds() {
		text, ok := kgen.CorpusText(seed)
		if !ok {
			f.Fatalf("kgen corpus seed %d has no text", seed)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := parser.Parse(src)
		if err != nil || m.Verify() != nil {
			return // rejection is fine; panics are the bug class under test
		}
		text := m.Print()
		m2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n--- printed\n%s\n--- input\n%q", err, text, src)
		}
		if text2 := m2.Print(); text2 != text {
			t.Fatalf("print is not a fixpoint after one round trip:\n--- first\n%s\n--- second\n%s", text, text2)
		}
	})
}
