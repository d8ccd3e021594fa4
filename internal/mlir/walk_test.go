package mlir

import (
	"strings"
	"testing"
)

// buildWalkTree builds a module whose function body holds t.a, t.b (whose
// region holds t.b1, t.b2 and t.b3, with t.b2 holding t.b2x), t.c, t.d and
// t.e, then func.return.
func buildWalkTree() (*Module, *Op) {
	m := NewModule()
	f, _ := m.AddFunc("walk", nil, nil)
	body := FuncBody(f)
	op := func(blk *Block, name string) *Op {
		o := NewOp(name, nil, nil)
		blk.Append(o)
		return o
	}
	op(body, "t.a")
	b := op(body, "t.b")
	inner := NewBlock()
	b.AddRegion().AddBlock(inner)
	op(inner, "t.b1")
	b2 := op(inner, "t.b2")
	b2x := NewBlock()
	b2.AddRegion().AddBlock(b2x)
	op(b2x, "t.b2x")
	op(inner, "t.b3")
	for _, n := range []string{"t.c", "t.d", "t.e"} {
		op(body, n)
	}
	op(body, OpReturn)
	return m, f
}

// nextSibling returns the op after o in its block, or nil.
func nextSibling(o *Op) *Op {
	ops := o.Block().Ops
	for i, x := range ops {
		if x == o && i+1 < len(ops) {
			return ops[i+1]
		}
	}
	return nil
}

// mutate applies the callbacks' edits for the op named by o: t.a inserts
// ops before and after itself, t.b1 and t.d erase their next sibling, and
// t.c walks the whole function again, recording that walk under "inner".
func mutate(o *Op, f *Op, trace *[]string) {
	switch o.Name {
	case "t.a":
		o.Block().InsertBefore(NewOp("t.before-a", nil, nil), o)
		o.Block().InsertAfter(NewOp("t.after-a", nil, nil), o)
	case "t.b1", "t.d":
		nextSibling(o).Erase()
	case "t.c":
		var inner []string
		Walk(f, func(x *Op) bool {
			inner = append(inner, x.Name)
			return true
		})
		*trace = append(*trace, "inner["+strings.Join(inner, " ")+"]")
	}
}

// TestWalkSnapshotSemantics pins the visit order of Walk and WalkPost when
// callbacks edit the IR: each block's ops are taken as they stand when the
// walk enters the block, so erased ops are still visited, inserted ones are
// not, and a walk nested in a callback sees the edits made so far. The
// expected orders were recorded with the copying walk the pooled stack
// replaced.
func TestWalkSnapshotSemantics(t *testing.T) {
	_, f := buildWalkTree()
	var pre []string
	Walk(f, func(o *Op) bool {
		pre = append(pre, o.Name)
		mutate(o, f, &pre)
		return o.Name != "t.b2" // skip t.b2's region
	})
	wantPre := "func.func t.a t.b t.b1 t.b2 t.b3 t.c " +
		"inner[func.func t.before-a t.a t.after-a t.b t.b1 t.b3 t.c t.d t.e func.return] " +
		"t.d t.e func.return"
	if got := strings.Join(pre, " "); got != wantPre {
		t.Errorf("Walk order:\n got  %s\n want %s", got, wantPre)
	}

	_, f = buildWalkTree()
	var post []string
	WalkPost(f, func(o *Op) {
		post = append(post, o.Name)
		mutate(o, f, &post)
	})
	wantPost := "t.a t.b1 t.b2x t.b2 t.b3 t.b t.c " +
		"inner[func.func t.before-a t.a t.after-a t.b t.b1 t.b3 t.c t.d t.e func.return] " +
		"t.d t.e func.return func.func"
	if got := strings.Join(post, " "); got != wantPost {
		t.Errorf("WalkPost order:\n got  %s\n want %s", got, wantPost)
	}
}
