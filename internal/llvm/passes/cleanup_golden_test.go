package passes_test

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// phiSources are hand-written inputs that leave two or more phis in one
// block, which the generated corpus never does: they pin the order and
// naming of phis that mem2reg places side by side.
var phiSources = []struct{ name, src string }{
	{"carry-two", `
void carry(float A[8], float B[8]) {
  float s = 0.0f;
  float t = 1.0f;
  for (int i = 0; i < 8; i++) {
    s = s + A[i];
    t = t * B[i];
  }
  A[0] = s;
  B[0] = t;
}
`},
	{"carry-nested", `
void nest(float A[4][4], int C[4]) {
  float s = 0.0f;
  int n = 0;
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      s = s + A[i][j];
      n += 1;
    }
    C[i] = n;
  }
  A[0][0] = s;
}
`},
	{"if-else-two", `
void arms(float A[8], int B[8]) {
  float x;
  int y;
  if (B[0] > 0) {
    x = A[0];
    y = B[1];
  } else {
    x = A[2];
    y = B[3];
  }
  A[4] = x;
  B[4] = y;
}
`},
	{"if-else-loop", `
void sel(float A[8], float B[8]) {
  float lo = 0.0f;
  float hi = 0.0f;
  for (int i = 0; i < 8; i++) {
    if (A[i] < B[i]) {
      lo = lo + A[i];
      hi = hi + B[i];
    } else {
      lo = lo + B[i];
      hi = hi + A[i];
    }
  }
  A[0] = lo;
  B[0] = hi;
}
`},
}

// cfrontTestSources returns every raw string literal in the C frontend's
// tests that compiles, labelled by the declaration holding it.
func cfrontTestSources(t *testing.T) []struct{ name, src string } {
	t.Helper()
	var out []struct{ name, src string }
	for _, file := range []string{"cfront_test.go", "lang_test.go"} {
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, filepath.Join("..", "..", "cfront", file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range af.Decls {
			name := ""
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name = d.Name.Name
			case *ast.GenDecl:
				if vs, ok := d.Specs[0].(*ast.ValueSpec); ok {
					name = vs.Names[0].Name
				}
			}
			n := 0
			ast.Inspect(decl, func(node ast.Node) bool {
				lit, ok := node.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
					return true
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cfront.Compile(src, cfront.Options{}); err != nil {
					return true
				}
				n++
				out = append(out, struct{ name, src string }{fmt.Sprintf("%s/%s#%d", file, name, n), src})
				return true
			})
		}
	}
	return out
}

func moduleDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return fmt.Sprintf("%x", sum[:12])
}

// cleanupGoldenReport digests the printed LLVM the passes leave behind on
// both flows: the C frontend's output for the C++ flow's emitted source of
// every polybench kernel × dse.Space() at MINI and SMALL and every kgen
// corpus kernel × dse.Space(), the adaptor flow's llvm-opt output for the
// same jobs, and the C frontend's output for the hand-written sources of
// its own tests and of phiSources.
func cleanupGoldenReport(t *testing.T) string {
	t.Helper()
	type kernel struct {
		group, top string
		build      func() *mlir.Module
	}
	var kernels []kernel
	for _, size := range []string{"MINI", "SMALL"} {
		for _, k := range polybench.All() {
			s, err := k.SizeOf(size)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, kernel{"polybench-" + size, k.Name, func() *mlir.Module { return k.Build(s) }})
		}
	}
	for _, k := range kgen.CorpusKernels() {
		kernels = append(kernels, kernel{"kgen", k.Name, k.Build})
	}
	var sb strings.Builder
	tgt := hls.DefaultTarget()
	for _, k := range kernels {
		for _, c := range dse.Space() {
			res, err := flow.CxxFlow(k.build(), k.top, c.D, tgt)
			if err != nil {
				t.Fatalf("%s %s %s cxx: %v", k.group, k.top, c.Label, err)
			}
			cm, err := cfront.Compile(res.CSource, cfront.Options{Top: k.top})
			if err != nil {
				t.Fatalf("%s %s %s c-frontend: %v", k.group, k.top, c.Label, err)
			}
			fmt.Fprintf(&sb, "%s %s %s cfront %s\n", k.group, k.top, c.Label, moduleDigest(cm.Print()))
			am, err := flow.PrepareLLVM(k.build(), k.top, c.D)
			if err != nil {
				t.Fatalf("%s %s %s adaptor: %v", k.group, k.top, c.Label, err)
			}
			fmt.Fprintf(&sb, "%s %s %s adaptor %s\n", k.group, k.top, c.Label, moduleDigest(am.Print()))
		}
	}
	for _, s := range append(cfrontTestSources(t), phiSources...) {
		m, err := cfront.Compile(s.src, cfront.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&sb, "source %s - cfront %s\n", s.name, moduleDigest(m.Print()))
	}
	return sb.String()
}

// TestCleanupGolden pins the printed module of every input above to
// digests recorded with the quadratic mem2reg and SimplifyCFG that the
// linear passes replaced: output must stay byte-identical to theirs, so the
// golden is a fixed record with no regenerate switch. A new or edited C
// source in the frontend's tests shows up as an added or changed line; add
// it by hand once the passes are known not to have changed.
func TestCleanupGolden(t *testing.T) {
	got := cleanupGoldenReport(t)
	want, err := os.ReadFile(filepath.Join("testdata", "cleanup_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("cleanup golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("cleanup golden has %d lines, report %d", len(wl), len(gl))
}
