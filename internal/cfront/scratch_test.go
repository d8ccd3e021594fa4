package cfront_test

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cfront"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/polybench"
	"repro/internal/raceflag"
)

// emittedC returns the HLS C++ the C++ flow emits for a kernel at MINI
// with its innermost loops pipelined.
func emittedC(t *testing.T, kernel string) string {
	t.Helper()
	k := polybench.Get(kernel)
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.CxxFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	return res.CSource
}

// bytesOf returns the bytes one call of f allocates.
func bytesOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseCScratchBytes checks that a parse with its pool warm allocates
// at least the token buffer fewer bytes than one right after two
// collections have emptied every pool, on gemm's emitted C.
func TestParseCScratchBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	src := emittedC(t, "gemm")
	parse := func() {
		if _, err := cfront.ParseC(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	cold := bytesOf(parse)
	warm := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		warm = min(warm, bytesOf(parse))
	}
	toks := uint64(cfront.PooledTokenBytes(src))
	t.Logf("%d source bytes: %d bytes cold, %d warm, token buffer %d", len(src), cold, warm, toks)
	if cold < warm+toks {
		t.Errorf("a warm parse saves %d bytes, want at least the %d bytes of its token buffer", cold-min(cold, warm), toks)
	}
}

// TestParseCRecycledTokens compiles two kernels' emitted C in alternation
// from four goroutines: a module built from a recycled token buffer must
// print what the kernel's first compile printed, also after later
// parses, and a parse error must not disturb the next parse.
func TestParseCRecycledTokens(t *testing.T) {
	srcs := []string{emittedC(t, "gemm"), emittedC(t, "atax")}
	refs := make([]string, len(srcs))
	for i, src := range srcs {
		m, err := cfront.Compile(src, cfront.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = m.Print()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (g + r) % len(srcs)
				m, err := cfront.Compile(srcs[i], cfront.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := cfront.ParseC(srcs[i] + "\n$"); err == nil {
					t.Error("a stray character parsed")
					return
				}
				if got := m.Print(); got != refs[i] {
					t.Errorf("goroutine %d round %d: source %d compiles differently", g, r, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompileAllocs pins the allocations of one compile of gemm's emitted
// C at SMALL, pipelined: the AST and the constants are cut from slabs, an
// instruction is one allocation with its operand list, names come from a
// shared table and the tables from pools.
func TestCompileAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.CxxFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		if _, err := cfront.Compile(res.CSource, cfront.Options{Top: k.Name}); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	n := testing.AllocsPerRun(20, compile)
	t.Logf("%d source bytes compiled in %.0f allocations", len(res.CSource), n)
	if n > 320 {
		t.Errorf("Compile makes %.0f allocations, want at most 320", n)
	}
}
