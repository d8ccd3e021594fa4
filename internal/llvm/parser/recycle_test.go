package parser_test

import (
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm/parser"
	"repro/internal/polybench"
)

// TestParseRecycledScratch parses two kernels' final modules in
// alternation from four goroutines, with a failed parse between: a module
// parsed with a recycled token buffer and name tables must print as the
// kernel's first parse printed, also after later parses.
func TestParseRecycledScratch(t *testing.T) {
	var srcs, refs []string
	for _, name := range []string{"gemm", "atax"} {
		k := polybench.Get(name)
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
		if err != nil {
			t.Fatal(err)
		}
		src := res.LLVM.Print()
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		srcs, refs = append(srcs, src), append(refs, m.Print())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (g + r) % len(srcs)
				m, err := parser.Parse(srcs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := parser.Parse(srcs[i] + "\n$"); err == nil {
					t.Error("a stray character parsed")
					return
				}
				if got := m.Print(); got != refs[i] {
					t.Errorf("goroutine %d round %d: module %d parses differently", g, r, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
