package flow

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/raceflag"
	"repro/internal/resilience"
)

// compareRuns asserts a warm (incremental) result is observably identical
// to the cold baseline: final LLVM bytes, reports, emitted source, and the
// set of recorded phases (durations are wall-clock and may differ).
func compareRuns(t *testing.T, label string, cold, warm *Result) {
	t.Helper()
	if cold.Flow != warm.Flow {
		t.Fatalf("%s: flow %q vs %q", label, cold.Flow, warm.Flow)
	}
	if cold.LLVM.Print() != warm.LLVM.Print() {
		t.Fatalf("%s: final LLVM diverges", label)
	}
	cj, _ := json.Marshal(cold.Report)
	wj, _ := json.Marshal(warm.Report)
	if string(cj) != string(wj) {
		t.Fatalf("%s: synthesis report diverges:\ncold %s\nwarm %s", label, cj, wj)
	}
	cj, _ = json.Marshal(cold.Adaptor)
	wj, _ = json.Marshal(warm.Adaptor)
	if string(cj) != string(wj) {
		t.Fatalf("%s: adaptor report diverges:\ncold %s\nwarm %s", label, cj, wj)
	}
	if cold.CSource != warm.CSource {
		t.Fatalf("%s: emitted C source diverges", label)
	}
	for name := range cold.Phases {
		if _, ok := warm.Phases[name]; !ok {
			t.Fatalf("%s: warm run lost phase %q", label, name)
		}
	}
	for name := range warm.Phases {
		if _, ok := cold.Phases[name]; !ok {
			t.Fatalf("%s: warm run gained phase %q", label, name)
		}
	}
}

func runFlow(t *testing.T, kind string, k *polybench.Kernel, d Directives, opts Options) *Result {
	t.Helper()
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	switch kind {
	case "adaptor":
		res, err = AdaptorFlowWith(k.Build(s), k.Name, d, hls.DefaultTarget(), opts)
	case "cxx":
		res, err = CxxFlowWith(k.Build(s), k.Name, d, hls.DefaultTarget(), opts)
	default:
		t.Fatalf("unknown flow kind %q", kind)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", kind, k.Name, err)
	}
	return res
}

// TestIncrementalMatchesColdAllKernels is the equivalence property over the
// whole suite: for every kernel and both flows, an incremental run against
// an empty store and a second fully-replayed run both produce results
// byte-identical to a plain cold run, and the second run executes nothing.
func TestIncrementalMatchesColdAllKernels(t *testing.T) {
	d := Directives{Pipeline: true, II: 1, Unroll: 2}
	for _, kind := range []string{"adaptor", "cxx"} {
		for _, k := range polybench.All() {
			kind, k := kind, k
			t.Run(kind+"/"+k.Name, func(t *testing.T) {
				cold := runFlow(t, kind, k, d, Options{})
				store := incr.NewMemStore()
				first := runFlow(t, kind, k, d, Options{IncrStore: store})
				compareRuns(t, "first incremental run", cold, first)
				if first.UnitHits != 0 || first.UnitMisses == 0 {
					t.Fatalf("first run against empty store: hits=%d misses=%d", first.UnitHits, first.UnitMisses)
				}
				warm := runFlow(t, kind, k, d, Options{IncrStore: store})
				compareRuns(t, "fully replayed run", cold, warm)
				if warm.UnitMisses != 0 || warm.UnitHits != first.UnitMisses {
					t.Fatalf("warm run: hits=%d misses=%d, want %d hits 0 misses",
						warm.UnitHits, warm.UnitMisses, first.UnitMisses)
				}
			})
		}
	}
}

// TestIncrementalRandomDirectiveEdits drives a randomized directive-edit
// sequence through a shared store, comparing every incremental result
// against a fresh cold run of the same configuration — the property that
// prefix replay across arbitrarily ordered, partially overlapping
// configurations never leaks state between design points.
func TestIncrementalRandomDirectiveEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randDirectives := func() Directives {
		d := Directives{}
		if rng.Intn(2) == 1 {
			d.Pipeline = true
			d.II = 1 + rng.Intn(3)
		}
		d.Unroll = []int{0, 2, 4}[rng.Intn(3)]
		if rng.Intn(3) == 0 {
			d.Partition = &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}
		}
		d.Flatten = rng.Intn(2) == 1
		return d
	}
	store := incr.NewMemStore()
	for _, kind := range []string{"adaptor", "cxx"} {
		for _, name := range []string{"gemm", "jacobi1d", "atax"} {
			k := polybench.Get(name)
			if k == nil {
				t.Fatalf("kernel %s not registered", name)
			}
			for i := 0; i < 6; i++ {
				d := randDirectives()
				cold := runFlow(t, kind, k, d, Options{})
				warm := runFlow(t, kind, k, d, Options{IncrStore: store})
				compareRuns(t, kind+"/"+name, cold, warm)
			}
		}
	}
}

// TestIncrementalOracleVerdictsMatch proves the semantic-oracle
// interaction: verification options key the records, a replayed run
// reaches the same verdict as cold, and chaos injection disables
// memoization entirely (an injected miscompile must never be masked by —
// or poison — the store).
func TestIncrementalOracleVerdictsMatch(t *testing.T) {
	k := polybench.Get("gemm")
	d := Directives{Pipeline: true, II: 1}
	store := incr.NewMemStore()

	plain := runFlow(t, "adaptor", k, d, Options{IncrStore: store})
	if plain.UnitHits != 0 {
		t.Fatalf("empty store produced %d hits", plain.UnitHits)
	}

	// Same directives with the oracle on must not reuse the unchecked
	// records: every unit re-runs under the stricter regime.
	opts := Options{IncrStore: store, VerifySemantics: true}
	checked := runFlow(t, "adaptor", k, d, opts)
	if checked.UnitHits != 0 {
		t.Fatalf("oracle-checked run replayed %d units recorded without checks", checked.UnitHits)
	}
	cold := runFlow(t, "adaptor", k, d, Options{VerifySemantics: true})
	compareRuns(t, "oracle cold vs first incremental", cold, checked)

	warm := runFlow(t, "adaptor", k, d, opts)
	if warm.UnitMisses != 0 {
		t.Fatalf("second oracle run executed %d units", warm.UnitMisses)
	}
	compareRuns(t, "oracle warm replay", cold, warm)

	// Injection forces live execution: the corruption must be detected
	// exactly as without a store, and nothing of the poisoned run stored.
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	before := store.Len()
	inj := opts
	inj.InjectMiscompile = "llvm-opt/cse"
	_, err = AdaptorFlowWith(k.Build(s), k.Name, d, hls.DefaultTarget(), inj)
	if err == nil {
		t.Fatal("injected miscompile went undetected under incremental options")
	}
	if store.Len() != before {
		t.Fatalf("injected run grew the store: %d -> %d records", before, store.Len())
	}
	// And the store still replays the clean configuration afterwards.
	again := runFlow(t, "adaptor", k, d, opts)
	if again.UnitMisses != 0 {
		t.Fatalf("store poisoned: clean rerun executed %d units", again.UnitMisses)
	}
}

// orderedStore remembers the keys a run stores, in unit order.
type orderedStore struct {
	incr.Store
	keys []string
}

func (s *orderedStore) Put(key string, rec incr.Record) error {
	s.keys = append(s.keys, key)
	return s.Store.Put(key, rec)
}

// poisonedStore serves the records of units before cut with every
// arith.addf turned into arith.subf, and hides the records from cut on.
type poisonedStore struct {
	incr.Store
	unit          map[string]int // key -> index of the unit that stored it
	cut, poisoned int
}

func (s *poisonedStore) Get(key string) (incr.Record, bool) {
	if i, ok := s.unit[key]; !ok || i >= s.cut {
		return incr.Record{}, false
	}
	rec, ok := s.Store.Get(key)
	if ok && strings.Contains(rec.IR, "arith.addf") {
		rec.IR = strings.ReplaceAll(rec.IR, "arith.addf", "arith.subf")
		s.poisoned++
	}
	return rec, ok
}

// TestOracleReferenceIsPristineUnderPoisonedReplay pins where a memoized
// run takes the oracle's reference: from the module the run started from,
// never from a replayed record. The warm run replays corrupted affine-level
// records up to lowering/affine-to-scf, which runs live on them, and its
// check must report the miscompile there. A reference taken from the
// materialized records would agree with the corruption and pass the run.
func TestOracleReferenceIsPristineUnderPoisonedReplay(t *testing.T) {
	k := polybench.Get("gemm")
	d := Directives{Pipeline: true, II: 1}
	cut := -1
	for i, u := range PipelineUnits("adaptor", d) {
		if u.String() == "lowering/affine-to-scf" {
			cut = i
		}
	}
	for _, seed := range []string{"", "gemm|MINI"} {
		cold := &orderedStore{Store: incr.NewMemStore()}
		runFlow(t, "adaptor", k, d, Options{IncrStore: cold, IncrSeed: seed, VerifySemantics: true})
		store := &poisonedStore{Store: cold.Store, unit: map[string]int{}, cut: cut}
		for i, key := range cold.keys {
			store.unit[key] = i
		}
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{IncrStore: store, IncrSeed: seed, VerifySemantics: true}
		_, err = AdaptorFlowWith(k.Build(s), k.Name, d, hls.DefaultTarget(), opts)
		if store.poisoned == 0 {
			t.Fatalf("seed %q: fixture: no replayed record held an arith.addf", seed)
		}
		wantFailure(t, fmt.Sprintf("seed %q", seed), err, resilience.KindMiscompile, "lowering", "affine-to-scf")
	}
}

// TestIncrementalInvalidation pins the re-run frontier: editing one
// directive re-runs the flow from the first affected unit, replaying
// exactly the unchanged prefix. An II change affects the second MLIR pass,
// so exactly one unit (hls-mark-top) replays.
func TestIncrementalInvalidation(t *testing.T) {
	k := polybench.Get("gemm")
	store := incr.NewMemStore()
	d1 := Directives{Pipeline: true, II: 1}
	first := runFlow(t, "adaptor", k, d1, Options{IncrStore: store})

	d2 := Directives{Pipeline: true, II: 2}
	edited := runFlow(t, "adaptor", k, d2, Options{IncrStore: store})
	if edited.UnitHits != 1 {
		t.Fatalf("II edit: %d units replayed, want exactly the pre-edit prefix (1)", edited.UnitHits)
	}
	if want := first.UnitMisses - 1; edited.UnitMisses != want {
		t.Fatalf("II edit: %d units executed, want %d (everything from the edited unit down)",
			edited.UnitMisses, want)
	}
	// The edited configuration must itself replay cleanly now.
	warm := runFlow(t, "adaptor", k, d2, Options{IncrStore: store})
	if warm.UnitMisses != 0 {
		t.Fatalf("edited config not fully recorded: %d misses", warm.UnitMisses)
	}
	compareRuns(t, "edited config replay", edited, warm)
}

// withoutAdaptorRecords hides the adaptor's records (the only ones with
// both rewritten IR and an auxiliary report) from the store it wraps.
type withoutAdaptorRecords struct{ incr.Store }

func (s withoutAdaptorRecords) Get(key string) (incr.Record, bool) {
	rec, ok := s.Store.Get(key)
	if ok && rec.IR != "" && len(rec.Aux) > 0 {
		return incr.Record{}, false
	}
	return rec, ok
}

// TestIncrementalRebuildsTranslateRecord replays translation but not the
// adaptor, so the live adaptor runs on a module parsed back from the stored
// translate record. With partition directives in its attributes, that
// module must parse, and the run must match a cold one for every kernel.
func TestIncrementalRebuildsTranslateRecord(t *testing.T) {
	d := Directives{Pipeline: true, II: 1, Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}}
	for _, k := range polybench.All() {
		cold := runFlow(t, "adaptor", k, d, Options{})
		store := incr.NewMemStore()
		runFlow(t, "adaptor", k, d, Options{IncrStore: store})
		warm := runFlow(t, "adaptor", k, d, Options{IncrStore: withoutAdaptorRecords{store}})
		if warm.UnitHits == 0 || warm.UnitMisses == 0 {
			t.Fatalf("%s: %d hits / %d misses, want translate replayed and the adaptor live",
				k.Name, warm.UnitHits, warm.UnitMisses)
		}
		compareRuns(t, k.Name, cold, warm)
	}
}

// TestIncrementalDiskStoreWarmStart proves the cross-process path: a fresh
// DiskStore handle over a directory populated by a previous handle replays
// the whole flow.
func TestIncrementalDiskStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	k := polybench.Get("jacobi1d")
	d := Directives{Pipeline: true, II: 1}

	s1, err := incr.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runFlow(t, "adaptor", k, d, Options{IncrStore: s1})

	s2, err := incr.OpenDiskStore(dir) // fresh handle = new process
	if err != nil {
		t.Fatal(err)
	}
	warm := runFlow(t, "adaptor", k, d, Options{IncrStore: s2})
	if warm.UnitMisses != 0 {
		t.Fatalf("disk warm start executed %d units", warm.UnitMisses)
	}
	compareRuns(t, "disk warm start", cold, warm)
}

// TestIncrementalSeededRuns covers the printless cursor: a caller-supplied
// IncrSeed (the engine derives one per job) skips the pristine print, keys
// a chain disjoint from content-addressed runs, and still produces results
// byte-identical to cold — with the oracle on too, whose reference the
// first live unit takes from the unprinted module itself.
func TestIncrementalSeededRuns(t *testing.T) {
	k := polybench.Get("gemm")
	d := Directives{Pipeline: true, II: 1, Unroll: 2}
	for _, kind := range []string{"adaptor", "cxx"} {
		for _, sem := range []bool{false, true} {
			store := incr.NewMemStore()
			opts := Options{IncrStore: store,
				IncrSeed: "gemm|MINI", VerifySemantics: sem}
			cold := runFlow(t, kind, k, d, Options{VerifySemantics: sem})
			first := runFlow(t, kind, k, d, opts)
			compareRuns(t, kind+" seeded first", cold, first)
			if first.UnitHits != 0 {
				t.Fatalf("%s: seeded run hit a fresh store %d times", kind, first.UnitHits)
			}
			warm := runFlow(t, kind, k, d, opts)
			compareRuns(t, kind+" seeded warm", cold, warm)
			if warm.UnitMisses != 0 {
				t.Fatalf("%s: seeded warm run executed %d units", kind, warm.UnitMisses)
			}
			// An unseeded run keys its first unit by content, not seed, so
			// that one unit re-runs — and since its output bytes match the
			// seeded chain's, the digest chains reconverge and everything
			// downstream replays.
			unseeded := opts
			unseeded.IncrSeed = ""
			other := runFlow(t, kind, k, d, unseeded)
			compareRuns(t, kind+" unseeded after seeded", cold, other)
			if other.UnitMisses != 1 || other.UnitHits != first.UnitMisses-1 {
				t.Fatalf("%s: unseeded run after seeded: hits=%d misses=%d, want %d/1",
					kind, other.UnitHits, other.UnitMisses, first.UnitMisses-1)
			}
		}
	}
}

// TestWarmReplaySpeedup is the flow-level timing floor: a fully warm
// re-run must beat the cold flow by at least 3x (the engine-level Fig8
// sweep test holds the 5x acceptance bound, where the cursor is seeded
// and the whole batch amortizes). Warm work is one pristine print and a
// hash per unit — the final module comes from the process-global cache —
// so the margin is wide; best-of-3 keeps scheduler noise out.
func TestWarmReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceflag.Enabled {
		t.Skip("timing bounds are meaningless under the race detector")
	}
	k := polybench.Get("gemm")
	d := Directives{Pipeline: true, II: 1, Unroll: 2}
	store := incr.NewMemStore()
	runFlow(t, "adaptor", k, d, Options{IncrStore: store}) // populate

	best := func(opts Options) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			s, _ := k.SizeOf("MINI")
			m := k.Build(s)
			start := time.Now()
			if _, err := AdaptorFlowWith(m, k.Name, d, hls.DefaultTarget(), opts); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < bestD {
				bestD = el
			}
		}
		return bestD
	}
	coldT := best(Options{})
	warmT := best(Options{IncrStore: store})
	if warmT*3 > coldT {
		t.Fatalf("warm replay %v vs cold %v: speedup %.1fx < 3x",
			warmT, coldT, float64(coldT)/float64(warmT))
	}
	t.Logf("cold %v, warm %v (%.1fx)", coldT, warmT, float64(coldT)/float64(warmT))
}
