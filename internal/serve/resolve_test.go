package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/resilience"
)

// TestResolveErrors pins the 400 and the message both endpoints answer
// for each input the resolver rejects.
func TestResolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name                   string
		kernel, size, src, top string
		want                   string
	}{
		{"unknown kernel", "nope", "", "", "", `unknown kernel "nope"`},
		{"bad size", "gemm", "HUGE", "", "", `polybench: kernel gemm has no size "HUGE"`},
		{"mlir without top", "", "", "func { }", "", "top is required for MLIR input"},
		{"unparsable mlir", "", "", "func { }", "f",
			`mlir: parse error at line 1 col 1 (near "func"): expected keyword "module"`},
		{"neither input", "", "", "", "", "request needs kernel or mlir"},
		// Malformed affine maps and over-deep nests are parse errors, not
		// panics or unbounded recursion.
		{"dim beyond map", "", "", applySrc("(d0) -> (d1)"), "f",
			`mlir: parse error at line 3 col 43 (near "d1"): d1 is beyond the map's 1 dimensions`},
		{"symbol beyond map", "", "", applySrc("(d0)[s0] -> (d0 + s1)"), "f",
			`mlir: parse error at line 3 col 52 (near "s1"): s1 is beyond the map's 1 symbols`},
		{"non-affine product", "", "", applySrc("(d0, d1) -> (d0 * d1)"), "f",
			`mlir: parse error at line 3 col 50 (near "*"): non-affine product: one factor of * must be a constant`},
		{"mod by zero", "", "", applySrc("(d0) -> (d0 mod 0)"), "f",
			`mlir: parse error at line 3 col 46 (near "mod"): mod by non-positive constant 0`},
		{"floordiv by negative", "", "", applySrc("(d0) -> (d0 floordiv -2)"), "f",
			`mlir: parse error at line 3 col 46 (near "floordiv"): floordiv by non-positive constant -2`},
		{"ceildiv by zero", "", "", applySrc("(d0) -> (d0 ceildiv 0)"), "f",
			`mlir: parse error at line 3 col 46 (near "ceildiv"): ceildiv by non-positive constant 0`},
		{"deep parentheses", "", "", applySrc("(d0) -> (" + strings.Repeat("(", 400) + "d0" + strings.Repeat(")", 400) + ")"), "f",
			`mlir: parse error at line 3 col 298 (near "("): nesting deeper than 256 levels`},
		{"deep affine sum", "", "", applySrc("(d0) -> (d0" + strings.Repeat(" + d0", 300) + ")"), "f",
			`mlir: parse error at line 3 col 1326 (near "+"): affine expression nested deeper than 256 levels`},
		{"deep loop nest", "", "", "module {\n  func.func @f() {\n" + strings.Repeat("affine.for %i = 0 to 2 {\n", 300) +
			strings.Repeat("}\n", 300) + "    func.return\n  }\n}\n", "f",
			`mlir: parse error at line 259 col 1 (near "affine.for"): nesting deeper than 256 levels`},
		// Types some layer cannot run are parse errors where they are
		// spelled, not retyped or left to fail in the oracle.
		{"f16 scalar", "", "", typeSrc("f16"), "f",
			`mlir: parse error at line 2 col 23 (near "f16"): unsupported type "f16" (scalars are index, i1, i32, i64, f32, f64)`},
		{"i128 scalar", "", "", typeSrc("i128"), "f",
			`mlir: parse error at line 2 col 23 (near "i128"): unsupported type "i128" (scalars are index, i1, i32, i64, f32, f64)`},
		{"i8 memref", "", "", typeSrc("memref<4xi8>"), "f",
			`mlir: parse error at line 2 col 23 (near "memref"): unsupported memref<4xi8> (elements are i32, i64, f32, f64)`},
		{"i1 memref", "", "", typeSrc("memref<4x4xi1>"), "f",
			`mlir: parse error at line 2 col 23 (near "memref"): unsupported memref<4x4xi1> (elements are i32, i64, f32, f64)`},
	}
	for _, tc := range cases {
		for _, ep := range []struct {
			path string
			body any
		}{
			{"/v1/eval", EvalRequest{Kernel: tc.kernel, Size: tc.size, MLIR: tc.src, Top: tc.top}},
			{"/v1/sweep", SweepRequest{Kernel: tc.kernel, Size: tc.size, MLIR: tc.src, Top: tc.top}},
		} {
			resp := postJSON(t, ts.URL+ep.path, ep.body)
			var body map[string]string
			err := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || body["err"] != tc.want {
				t.Errorf("%s %s: status %d, err %q (%v), want 400 with %q",
					tc.name, ep.path, resp.StatusCode, body["err"], err, tc.want)
			}
		}
	}
}

// typeSrc is a function of one argument of type ty.
func typeSrc(ty string) string {
	return "module {\n  func.func @f(%arg0: " + ty + ") {\n    func.return\n  }\n}\n"
}

// applySrc is a function of two index arguments applying affine map m.
func applySrc(m string) string {
	return "module {\n  func.func @f(%arg0: index, %arg1: index) {\n    %0 = affine.apply affine_map<" + m +
		">(%arg0, %arg1)\n    func.return\n  }\n}\n"
}

// axpySrc is a hand-written MLIR kernel whose function is named top.
func axpySrc(top string) string {
	return strings.ReplaceAll(`module {
  func.func @TOP(%arg0: memref<16xf32>, %arg1: memref<16xf32>) {
    affine.for %1 = 0 to 16 step 1 {
      %2 = affine.load %arg0[%1] : memref<16xf32>
      %3 = affine.load %arg1[%1] : memref<16xf32>
      %4 = arith.addf %2, %3 : f32
      affine.store %4, %arg1[%1] : memref<16xf32>
    }
    func.return
  }
}
`, "TOP", top)
}

// TestRecoveryJournalKeepsMLIRInput journals two MLIR-input requests the
// way a daemon killed mid-run leaves them: one whose top names no kernel,
// one whose top names a polybench kernel. The next daemon re-admits both,
// and every journal line written under their keys must still carry the
// MLIR text: a line without it would leave the next restart an entry it
// cannot rebuild, marked done and dropped.
func TestRecoveryJournalKeepsMLIRInput(t *testing.T) {
	dir := t.TempDir()
	j, err := resilience.OpenJournal(filepath.Join(dir, "pending.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	type input struct{ top, src string }
	want := map[string]input{} // journal key -> journaled input
	for _, top := range []string{"axpy", "gemm"} {
		src := axpySrc(top)
		key := engine.Key(engine.Job{Kind: engine.KindAdaptor, Top: top,
			CacheScope: fmt.Sprintf("%x", sha256.Sum256([]byte(src))), Target: hls.DefaultTarget()})
		want[key] = input{top, src}
		if err := j.Put(key, pendingEntry{Req: EvalRequest{Client: "orphan", MLIR: src, Top: top}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Engine().Stats().Jobs < int64(len(want)) {
		if time.Now().After(deadline) {
			t.Fatal("recovered jobs never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "pending.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var line struct {
			Key  string       `json:"key"`
			Data pendingEntry `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		in, ok := want[line.Key]
		if !ok {
			continue
		}
		lines[line.Key]++
		if line.Data.Req.MLIR != in.src {
			t.Errorf("line %d (top %s, done=%t) carries no MLIR text: %+v",
				n, in.top, line.Data.Done, line.Data.Req)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key, in := range want {
		// The journaled line plus recovery's pending and done lines.
		if lines[key] < 3 {
			t.Errorf("top %q: %d journal lines under its key, want the recovery run's too", in.top, lines[key])
		}
	}
}
