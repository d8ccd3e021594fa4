package incr

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

func TestUnitKeyDistinguishesEveryField(t *testing.T) {
	base := UnitKey("cfg", "stage/pass", "params", "input")
	variants := []string{
		UnitKey("cfg2", "stage/pass", "params", "input"),
		UnitKey("cfg", "stage/pass2", "params", "input"),
		UnitKey("cfg", "stage/pass", "params2", "input"),
		UnitKey("cfg", "stage/pass", "params", "input2"),
		// Concatenation ambiguity: shifting a byte between adjacent
		// fields must change the key.
		UnitKey("cfgs", "tage/pass", "params", "input"),
		UnitKey("cfg", "stage/passp", "arams", "input"),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides: %s", i, v)
		}
		seen[v] = true
	}
	if again := UnitKey("cfg", "stage/pass", "params", "input"); again != base {
		t.Fatalf("key not deterministic: %s vs %s", again, base)
	}
}

func TestMemStoreFirstWriteWins(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("k", Record{IR: "first"})
	s.Put("k", Record{IR: "second"})
	r, ok := s.Get("k")
	if !ok || r.IR != "first" {
		t.Fatalf("got %+v ok=%v, want first record", r, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestDiskStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	aux, _ := json.Marshal(map[string]int{"latency": 42})
	key := UnitKey("cfg", "synthesis/synthesis", "tgt", "ir-bytes")
	s.Put(key, Record{IR: "module {}\n", Aux: aux})

	// A fresh handle on the same directory sees the record (cross-process
	// warm path).
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s2.Get(key)
	if !ok || r.IR != "module {}\n" || string(r.Aux) != string(aux) {
		t.Fatalf("reopened store: got %+v ok=%v", r, ok)
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// recordPath mirrors the castore sharding so tests can plant files.
func recordPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".json")
}

func TestDiskStoreTornRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := UnitKey("cfg", "u", "p", "in")
	path := recordPath(dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"ir": "trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("torn record served as a hit")
	}
	// The torn file was quarantined for inspection, and the decision is
	// front-cached: later gets never re-read it.
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("torn record not moved aside: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("quarantined key served")
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1 (quarantine decision not cached)", c.Corrupt)
	}
	// The unit re-runs and rewrites the record.
	if err := s.Put(key, Record{IR: "fixed"}); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.Get(key); !ok || r.IR != "fixed" {
		t.Fatalf("rewrite after torn record: got %+v ok=%v", r, ok)
	}
	// A fresh handle — no front cache — reads the rewritten file.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := s2.Get(key); !ok || r.IR != "fixed" {
		t.Fatalf("fresh handle after rewrite: got %+v ok=%v", r, ok)
	}
}

// TestDiskStoreCorruptButValidJSONQuarantined plants a record that parses
// as JSON but fails the envelope digest — the case naive stores silently
// trust.
func TestDiskStoreCorruptButValidJSONQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := UnitKey("cfg", "u", "p", "corrupt")
	path := recordPath(dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// A well-formed legacy-style record with no digest envelope: valid
	// JSON, untrustworthy content.
	if err := os.WriteFile(path, []byte(`{"ir":"module { tampered }"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("undigested record served as a hit")
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", c.Corrupt)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
}

// TestDiskStorePutErrorSurfaces proves a write failure is returned and
// counted instead of swallowed (the full-disk / read-only-tree case).
func TestDiskStorePutErrorSurfaces(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("directory permissions do not bind as root")
	}
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	key := UnitKey("cfg", "u", "p", "rofs")
	if err := s.Put(key, Record{IR: "x"}); err == nil {
		t.Fatal("Put on read-only tree returned nil")
	}
	if c := s.Counters(); c.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", c.PutErrors)
	}
	// Within this process the record still serves from the front cache —
	// a failed persist degrades durability, not correctness.
	if r, ok := s.Get(key); !ok || r.IR != "x" {
		t.Fatalf("front cache lost the record: %+v ok=%v", r, ok)
	}
}

func TestStoresAreConcurrencySafe(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{NewMemStore(), ds} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					key := UnitKey("cfg", "u", "p", string(rune('a'+i%7)))
					s.Put(key, Record{IR: "payload"})
					if r, ok := s.Get(key); ok && r.IR != "payload" {
						t.Errorf("worker %d: wrong payload %q", w, r.IR)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestCacheBounded: a cache never holds more than its bound, keeps the
// first value added under a key, and still serves the latest additions.
func TestCacheBounded(t *testing.T) {
	c := NewCache[int](8)
	for i := 0; i < 100; i++ {
		if got := c.Add(strconv.Itoa(i), i); got != i {
			t.Fatalf("Add(%d) returned %d", i, got)
		}
		if got := c.Add(strconv.Itoa(i), -1); got != i {
			t.Fatalf("second Add under %d replaced the value with %d", i, got)
		}
		if c.Len() > 8 {
			t.Fatalf("cache holds %d entries, bound 8", c.Len())
		}
	}
	if v, ok := c.Get("99"); !ok || v != 99 {
		t.Fatalf("latest entry lost: %d ok=%v", v, ok)
	}
}

// TestDiskStoreFrontCacheBounded pushes twice the front cache's bound of
// records through one store, written by Put and read back by Get from a
// second handle: neither front cache exceeds its bound, and every record
// still reads back, from disk once its front copy is dropped.
func TestDiskStoreFrontCacheBounded(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 2 * frontRecords
	key := func(i int) string { return UnitKey("cfg", "u", "p", strconv.Itoa(i)) }
	for i := 0; i < n; i++ {
		if err := w.Put(key(i), Record{IR: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
		if w.mem.Len() > frontRecords {
			t.Fatalf("front cache holds %d records after %d puts, bound %d", w.mem.Len(), i+1, frontRecords)
		}
	}
	r, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DiskStore{r, w} {
		for i := 0; i < n; i++ {
			if rec, ok := s.Get(key(i)); !ok || rec.IR != strconv.Itoa(i) {
				t.Fatalf("record %d: %+v ok=%v", i, rec, ok)
			}
			if s.mem.Len() > frontRecords {
				t.Fatalf("front cache holds %d records after %d gets, bound %d", s.mem.Len(), i+1, frontRecords)
			}
		}
	}
}
