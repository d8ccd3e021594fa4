package flow

import (
	"encoding/json"
	"fmt"

	"repro/internal/incr"
	"repro/internal/llvm"
	lparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
)

// memoRun threads the incremental store through one flow run as a byte
// cursor over the pipeline's evolving artifact. bytes always holds the
// canonical text of the current pipeline state (MLIR through the MLIR
// stages, then LLVM, with an HLS-C++ interlude in the baseline flow); when
// a unit replays from the store the live IR object is deliberately left
// behind (stale) and only re-materialized — one parse — before the first
// unit that actually has to execute, or at the end of the flow. A fully
// warm run therefore costs one hash per unit plus a single final parse.
type memoRun struct {
	store incr.Store
	// cfg is the flow-wide key salt: flow kind, top function, and the
	// verification options. Verification activation must participate in
	// the key because replayed units skip their checks — a record is only
	// valid under the exact checking regime that ran when it was stored.
	cfg string

	bytes string
	// hash is incr.HashBytes(bytes), threaded through replays via the
	// records' stored digests so a warm run never re-hashes a full
	// artifact to derive the next key.
	hash  string
	stale bool

	hits, misses int
}

// memoEnabled reports whether this run can memoize. Observation hooks and
// chaos injection need live execution of every unit: an Observer must see
// real per-unit IR (bisection replay depends on it), and a FaultHook or
// InjectMiscompile must actually perturb a running unit.
func (o Options) memoEnabled() bool {
	return o.IncrStore != nil && o.Observer == nil && o.FaultHook == nil && o.InjectMiscompile == ""
}

// newMemoRun starts the cursor on a pristine module. With an IncrSeed the
// module is never printed — the cursor starts from the seed's digest
// (domain-separated from content digests) and bytes stay empty until the
// first replay or live print fills them.
func newMemoRun(flowName, top string, opts Options, m *mlir.Module) *memoRun {
	cfg := fmt.Sprintf("flow=%s|top=%s|verify=%t|sem=%t",
		flowName, top, opts.VerifyEach, opts.VerifySemantics)
	if opts.IncrSeed != "" {
		return &memoRun{store: opts.IncrStore, cfg: cfg, hash: incr.HashBytes("seed:" + opts.IncrSeed)}
	}
	bytes := m.Print()
	return &memoRun{store: opts.IncrStore, cfg: cfg, bytes: bytes, hash: incr.HashBytes(bytes)}
}

// lookup keys the unit on the cursor and replays its record when the store
// holds a usable one.
func (r *runner) lookup(u *unit) (key string, replayed bool) {
	c := r.memo
	key = incr.UnitKey(c.cfg, u.String(), u.params, c.hash)
	if rec, ok := c.store.Get(key); ok && r.replay(u, rec) {
		c.hits++
		return key, true
	}
	return key, false
}

// catchUp brings the IR a unit reads up to date with the cursor after
// replayed units left it behind, so the unit can run live.
func (r *runner) catchUp(u *unit) error {
	c := r.memo
	if c == nil || !c.stale {
		return nil
	}
	if err := r.materialize(u.in, c.bytes); err != nil {
		return fmt.Errorf("incr: materialize before %s: %w", u, err)
	}
	c.stale = false
	return nil
}

// replay applies one stored record. A record that cannot be applied (torn
// Aux, empty IR where the unit rewrites it) reports false and the unit
// runs live instead — corruption degrades to a miss, never an error. The
// live IR is left behind (stale) until a unit has to run, except C source,
// which is its own text.
func (r *runner) replay(u *unit, rec incr.Record) bool {
	if u.out != noIR && (rec.IR == "" || rec.Hash == "") {
		return false
	}
	if u.aux != nil && u.aux.load(rec.Aux) != nil {
		return false
	}
	if u.out != noIR {
		c := r.memo
		c.bytes, c.hash = rec.IR, rec.Hash
		c.stale = u.out != cSource
		if u.out == cSource {
			r.src = rec.IR
		}
	}
	return true
}

// record advances the cursor past a unit that ran live and passed its
// checks, and stores the outcome under key.
func (r *runner) record(u *unit, key string) {
	c := r.memo
	c.misses++
	rec := incr.Record{}
	if u.out != noIR {
		c.bytes = r.print(u.out)
		c.hash = incr.HashBytes(c.bytes)
		rec.IR, rec.Hash = c.bytes, c.hash
	}
	if u.aux != nil {
		aux, err := u.aux.save()
		if err != nil {
			// The unit ran fine; only the record is unencodable. Skip
			// storing rather than failing the flow.
			return
		}
		rec.Aux = aux
	}
	// A failed persist degrades durability, never the flow: the store
	// counts the error (engine stats surface it as StoreErrors) and the
	// unit simply recomputes next time.
	_ = c.store.Put(key, rec)
}

// materialize rebuilds the IR at level l from cursor text. The MLIR module
// is refilled in place: it is the caller's module.
func (r *runner) materialize(l level, src string) error {
	switch l {
	case mlirIR:
		p, err := parser.Parse(src)
		if err != nil {
			return err
		}
		r.m.Op = p.Op
	case llvmIR:
		p, err := lparser.Parse(src)
		if err != nil {
			return err
		}
		r.lm = p
	case cSource:
		r.src = src
	}
	return nil
}

// auxCodec encodes a unit's non-IR product into its record and restores it
// on replay.
type auxCodec struct {
	save func() (json.RawMessage, error)
	load func(json.RawMessage) error
}

// jsonAux stores *dst as JSON. Only a unit that succeeded is recorded, and
// it always leaves a non-nil product.
func jsonAux[T any](dst **T) *auxCodec {
	return &auxCodec{
		save: func() (json.RawMessage, error) {
			if *dst == nil {
				return nil, fmt.Errorf("no %T to record", *dst)
			}
			return json.Marshal(*dst)
		},
		load: func(raw json.RawMessage) error {
			if len(raw) == 0 {
				return fmt.Errorf("record lacks its %T", *dst)
			}
			v := new(T)
			if err := json.Unmarshal(raw, v); err != nil {
				return err
			}
			*dst = v
			return nil
		},
	}
}

// finalModules caches parsed final modules by content digest, so repeated
// warm runs of the same design point skip the one parse a replayed tail
// otherwise costs. Entries are shared across Results: on a memoized run, a
// Result's LLVM module must be treated as read-only — the same sharing
// contract the engine's whole-flow cache already imposes on its hits.
var finalModules = incr.NewCache[*llvm.Module](finalModuleBound)

// finalModuleBound holds a whole Fig 8 sweep's final modules (51 at MINI)
// several times over.
const finalModuleBound = 256

// finalize re-materializes the live LLVM module after a replayed tail so
// the flow's Result carries a real module. The parser verifies what it
// parses, which stands in for the llvm-opt stage's closing verify that a
// replayed tail skipped. The pointer is replaced, never filled in place: a
// cache hit aliases a shared module that must stay pristine.
func (r *memoRun) finalize(lmp **llvm.Module) error {
	if !r.stale && *lmp != nil {
		return nil
	}
	if m, ok := finalModules.Get(r.hash); ok {
		*lmp = m
		r.stale = false
		return nil
	}
	p, err := lparser.Parse(r.bytes)
	if err != nil {
		return fmt.Errorf("incr: materialize final module: %w", err)
	}
	*lmp = finalModules.Add(r.hash, p)
	r.stale = false
	return nil
}
