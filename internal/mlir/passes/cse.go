package passes

import (
	"strconv"
	"sync"

	"repro/internal/mlir"
)

// CSE returns the common-subexpression-elimination pass. It deduplicates
// pure ops whose operands and attributes match, scoped so that an op can
// reuse an equivalent op from the same block or any structurally enclosing
// block (which always dominates it in structured control flow).
func CSE() Pass {
	return funcPass{name: "cse", fn: cseFunc}
}

// cseScratch is one CSE call's tables. exprs is a scoped table: it maps a
// key to the one op visible under it, and scope exit deletes the keys the
// scope added (an op is only recorded when no visible op has its key, so
// nothing is shadowed). ops stacks the op snapshots of the blocks being
// visited, so erasing an op does not disturb the visit.
type cseScratch struct {
	ids   map[*mlir.Value]int
	exprs map[string]*mlir.Op
	added []string
	ops   []*mlir.Op
	key   []byte
	hi    int // highest length ops reached
}

var cseScratches sync.Pool

func takeCSEScratch() *cseScratch {
	s, _ := cseScratches.Get().(*cseScratch)
	if s == nil {
		s = &cseScratch{ids: map[*mlir.Value]int{}, exprs: map[string]*mlir.Op{}}
	}
	return s
}

// release empties the tables, so the pool pins no module, and pools them.
func (s *cseScratch) release() {
	clear(s.ids)
	clear(s.exprs)
	clear(s.ops[:s.hi])
	s.ops, s.added, s.hi = s.ops[:0], s.added[:0], 0
	cseScratches.Put(s)
}

func (s *cseScratch) id(v *mlir.Value) int {
	if n, ok := s.ids[v]; ok {
		return n
	}
	n := len(s.ids) + 1
	s.ids[v] = n
	return n
}

// buildKey writes op's key into s.key: its name, operand numbers,
// attributes in name order and result types, '|'-separated.
func (s *cseScratch) buildKey(op *mlir.Op) {
	b := append(s.key[:0], op.Name...)
	for _, v := range op.Operands {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(s.id(v)), 10)
	}
	for _, a := range op.Attrs {
		b = append(b, '|')
		b = append(b, a.Name...)
		b = append(b, '=')
		b = mlir.AppendAttr(b, a.Value)
	}
	for _, r := range op.Results {
		b = append(b, '|')
		b = append(b, r.Type().String()...)
	}
	s.key = b
}

func (s *cseScratch) visitBlock(f *mlir.Op, b *mlir.Block) {
	mark := len(s.added)
	lo := len(s.ops)
	s.ops = append(s.ops, b.Ops...)
	hi := len(s.ops)
	s.hi = max(s.hi, hi)
	for i := lo; i < hi; i++ {
		op := s.ops[i]
		if mlir.IsPure(op) && len(op.Results) == 1 {
			s.buildKey(op)
			if prev, ok := s.exprs[string(s.key)]; ok {
				mlir.ReplaceAllUses(f, op.Result(0), prev.Result(0))
				op.Erase()
				continue
			}
			k := string(s.key)
			s.exprs[k] = op
			s.added = append(s.added, k)
		}
		for _, r := range op.Regions {
			for _, nb := range r.Blocks {
				s.visitBlock(f, nb)
			}
		}
	}
	s.ops = s.ops[:lo]
	for _, k := range s.added[mark:] {
		delete(s.exprs, k)
	}
	s.added = s.added[:mark]
}

func cseFunc(f *mlir.Op) error {
	body := mlir.FuncBody(f)
	if body == nil {
		return nil
	}
	s := takeCSEScratch()
	defer s.release()
	// Scoped CSE applies in the structured (single-block) regime; cf-level
	// functions get per-block CSE without inheritance.
	for _, b := range f.Regions[0].Blocks {
		s.visitBlock(f, b)
	}
	return nil
}
