// Package incr is the per-unit incremental-compilation store behind
// flow.Options.IncrStore: a content-addressed memo of pipeline-unit
// outputs keyed by SHA-256 of (flow configuration, unit name and
// parameters, canonical input-IR bytes). A flow run consults it before
// every unit; a hit replays the stored output bytes instead of executing
// the unit, so a directive change re-runs the pipeline only from the
// first affected unit, and a repeated design point replays its whole
// prefix from stored snapshots without recomputing anything.
//
// Soundness rests on two properties the flow layer maintains:
//
//   - every pipeline unit is a deterministic function of its input IR
//     bytes and its parameters (pass options, top name, target fields),
//     all of which participate in the key; and
//   - the printers and parsers round-trip byte-identically, so replaying
//     a stored snapshot leaves the pipeline in exactly the state a live
//     run would have produced (proven by the incremental-vs-cold
//     equivalence property test over every kernel and both flows).
//
// Two stores are provided: MemStore (per-process) and DiskStore
// (digest-verified content-addressed files via castore, shared across
// processes and restarts — the warm-start path for CLIs and the
// compile-service daemon).
package incr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/castore"
)

// Record is one memoized unit outcome.
type Record struct {
	// IR holds the unit's output artifact bytes — MLIR text through the
	// MLIR stages, LLVM text from translation on, HLS-C++ source for the
	// C++ flow's emit stage. Empty for units that do not rewrite the IR
	// (synthesis, whose product is only the report in Aux).
	IR string `json:"ir,omitempty"`
	// Hash is HashBytes(IR), stored so a replaying run can derive the
	// next unit's key without re-hashing the full artifact — the digest
	// chain that makes a fully warm run cost a few dozen bytes of hashing
	// per unit instead of the whole IR.
	Hash string `json:"hash,omitempty"`
	// Aux carries the unit's non-IR product as JSON: the adaptor's fix
	// report, synthesis's HLS report.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// HashBytes returns the hex SHA-256 of s — the digest stored in Record.Hash
// and fed to UnitKey as the input field.
func HashBytes(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed record store. Implementations must be safe
// for concurrent use: engine workers share one store across jobs. Put
// reports the write failure so a full or read-only disk surfaces in the
// caller's counters instead of presenting as a mysteriously cold cache; a
// failed Put must leave Get behavior unchanged (miss or previous record).
type Store interface {
	Get(key string) (Record, bool)
	Put(key string, rec Record) error
	// Len returns the number of distinct records stored.
	Len() int
}

// keyVersion invalidates every stored record when the key derivation or
// record layout changes incompatibly (v2: digest-verified castore
// envelopes on disk).
const keyVersion = "incr-v2"

// UnitKey derives the content-addressed key for one pipeline unit
// execution. cfg is the flow-wide configuration salt (flow kind, top
// function, verification options — see flow's memo construction), unit is
// "stage/pass", params carries the unit's own parameters (pass options,
// target fields for synthesis), and input identifies the canonical
// input-IR bytes entering the unit — the bytes themselves or, as the flow
// layer does, their HashBytes digest (equivalent addressing, cheaper to
// rekey on replay). Every field is length-prefixed so no two distinct
// tuples collide by concatenation.
func UnitKey(cfg, unit, params, input string) string {
	h := sha256.New()
	for _, s := range [...]string{keyVersion, cfg, unit, params} {
		writeField(h, s)
	}
	writeField(h, input)
	return hex.EncodeToString(h.Sum(nil))
}

func writeField(h interface{ Write([]byte) (int, error) }, s string) {
	var lenBuf [20]byte
	h.Write(strconv.AppendInt(lenBuf[:0], int64(len(s)), 10))
	h.Write([]byte{'|'})
	h.Write([]byte(s))
}

// MemStore is the in-memory store: a concurrent map from key to record.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]Record
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]Record)}
}

// Get implements Store.
func (s *MemStore) Get(key string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.m[key]
	return r, ok
}

// Put implements Store. The first write for a key wins, so records served
// to concurrent readers never change underneath them.
func (s *MemStore) Put(key string, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; !dup {
		s.m[key] = rec
	}
	return nil
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// DiskStore is the on-disk content-addressed store: digest-verified
// record files managed by castore, written atomically (temp + rename) so
// a killed writer never leaves a torn record, safe for any number of
// daemons and CLIs sharing one directory. A fresh process pointed at the
// same directory replays everything a previous process compiled — the
// cross-restart warm path. A record that fails the envelope digest or the
// Record schema — a corrupt-but-valid-JSON file included — is detected
// once, counted, and moved aside as <key>.json.quarantined, never
// silently trusted.
type DiskStore struct {
	ca *castore.Store
	// mem front-caches records this process has read or written, so a hot
	// sweep does not re-read files for every unit of every point.
	mem *MemStore
}

// OpenDiskStore opens (creating if needed) the store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	ca, err := castore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DiskStore{ca: ca, mem: NewMemStore()}, nil
}

// Get implements Store. A missing, torn, foreign, or digest-corrupt file
// is a miss, never an error: the unit re-runs and the record is
// rewritten. Corruption is quarantined and front-cached by the castore
// layer, so a hot key's bad record is inspected once, not re-read and
// re-unmarshaled on every sweep point.
func (s *DiskStore) Get(key string) (Record, bool) {
	if r, ok := s.mem.Get(key); ok {
		return r, ok
	}
	payload, ok := s.ca.Get(key)
	if !ok {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		// Digest-valid envelope wrapping bytes that are not a Record —
		// some other tool's content shares the key. Quarantine it like
		// any other corruption.
		s.ca.Quarantine(key)
		return Record{}, false
	}
	s.mem.Put(key, rec)
	return rec, true
}

// Put implements Store, returning the write failure (also counted in
// Counters) so a full or read-only disk is visible to callers instead of
// presenting as a cache that never warms. The front cache is updated
// first either way: within this process the record is good even when the
// disk is not.
func (s *DiskStore) Put(key string, rec Record) error {
	s.mem.Put(key, rec)
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.ca.Put(key, payload)
}

// Counters returns the underlying store's activity and health counters
// (put/get I/O errors, quarantined records); the engine surfaces them as
// StoreErrors/StoreCorrupt in its stats.
func (s *DiskStore) Counters() castore.Counters { return s.ca.Counters() }

// Len implements Store. It counts records on disk, not the front cache.
func (s *DiskStore) Len() int { return s.ca.Len() }

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.ca.Dir() }
