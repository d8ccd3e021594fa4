package kgen

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The checked-in corpus: minimal kgen kernels,
// one file per seed (corpus/k<seed>.mlir). It is the shared seed set for
// the repo's fuzz targets (parser round-trip, differential flows, journal
// recovery) and a drift alarm — TestCorpusMatchesGenerator fails the
// moment generator output changes for a checked-in seed, so determinism
// regressions are caught at test time, not mid-campaign. Regenerate with
// UPDATE_KGEN_CORPUS=1 go test ./internal/kgen/.

//go:embed corpus/*.mlir
var corpusFS embed.FS

// DefaultCorpusSeeds is the canonical seed list the checked-in corpus is
// generated from (the UPDATE_KGEN_CORPUS regen target).
var DefaultCorpusSeeds = func() []int64 {
	s := make([]int64, 16)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}()

// CorpusSeeds are the seeds of the checked-in corpus, in file order.
func CorpusSeeds() []int64 {
	ents, err := corpusFS.ReadDir("corpus")
	if err != nil {
		panic(fmt.Sprintf("kgen: embedded corpus unreadable: %v", err))
	}
	seeds := make([]int64, 0, len(ents))
	for _, e := range ents {
		name := strings.TrimSuffix(e.Name(), ".mlir")
		s, err := strconv.ParseInt(strings.TrimPrefix(name, "k"), 10, 64)
		if err != nil {
			panic(fmt.Sprintf("kgen: bad corpus file name %q", e.Name()))
		}
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

// CorpusText returns the checked-in module text for one seed.
func CorpusText(seed int64) (string, bool) {
	b, err := corpusFS.ReadFile(fmt.Sprintf("corpus/k%d.mlir", seed))
	if err != nil {
		return "", false
	}
	return string(b), true
}

// CorpusKernels reconstructs the full corpus (text, directives, label)
// from the checked-in seeds via the generator; the corpus-match test
// guarantees the reconstruction equals the committed files.
func CorpusKernels() []Kernel {
	seeds := CorpusSeeds()
	ks := make([]Kernel, len(seeds))
	for i, s := range seeds {
		ks[i] = Generate(s)
	}
	return ks
}

// WriteCorpus regenerates dir from the given seeds (the
// UPDATE_KGEN_CORPUS path), removing stale k*.mlir files.
func WriteCorpus(dir string, seeds []int64) error {
	stale, _ := filepath.Glob(filepath.Join(dir, "k*.mlir"))
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range seeds {
		k := Generate(s)
		path := filepath.Join(dir, fmt.Sprintf("k%d.mlir", s))
		if err := os.WriteFile(path, []byte(k.MLIR), 0o644); err != nil {
			return err
		}
	}
	return nil
}
