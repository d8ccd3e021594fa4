package llvm

import "fmt"

// Verify checks structural invariants: every block has a terminator, phis
// match their predecessors, operand types line up for known ops, and every
// instruction with a result has a unique name.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		if err := f.Verify(); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks one function.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	n := len(f.Params)
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	names := make(map[string]bool, n)
	for _, p := range f.Params {
		if names[p.Name] {
			return fmt.Errorf("duplicate parameter name %%%s", p.Name)
		}
		names[p.Name] = true
	}
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("block %%%s lacks a terminator", b.Name)
		}
		for i, in := range b.Instrs {
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("block %%%s has a terminator mid-block", b.Name)
			}
			if in.HasResult() {
				if in.Name == "" {
					return fmt.Errorf("unnamed result in block %%%s (op %s)", b.Name, in.Op)
				}
				if names[in.Name] {
					return fmt.Errorf("duplicate SSA name %%%s", in.Name)
				}
				names[in.Name] = true
			}
			if err := verifyInstr(in, preds); err != nil {
				return fmt.Errorf("block %%%s: %s: %w", b.Name, in.Op, err)
			}
		}
	}
	return nil
}

func verifyInstr(in *Instr, preds map[*Block][]*Block) error {
	want := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	nonNil := func() error {
		for i, a := range in.Args {
			if a == nil {
				return fmt.Errorf("nil operand %d", i)
			}
		}
		return nil
	}
	if err := nonNil(); err != nil {
		return err
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() {
			return fmt.Errorf("integer op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("float op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFNeg:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fneg on %s", in.Args[0].Type())
		}
	case OpICmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() && !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("icmp on %s", in.Args[0].Type())
		}
	case OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fcmp on %s", in.Args[0].Type())
		}
	case OpSelect:
		if err := want(3); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("select condition must be i1")
		}
	case OpLoad:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load from non-pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("load without element type")
		}
	case OpStore:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store to non-pointer")
		}
	case OpGEP:
		if len(in.Args) < 2 {
			return fmt.Errorf("gep needs pointer and at least one index")
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("gep base must be a pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("gep without source element type")
		}
		for _, a := range in.Args[1:] {
			if !a.Type().IsInt() {
				return fmt.Errorf("gep index must be integer")
			}
		}
	case OpAlloca:
		if in.SrcElem == nil {
			return fmt.Errorf("alloca without allocated type")
		}
	case OpPhi:
		if len(in.Args) != len(in.Blocks) {
			return fmt.Errorf("phi args/blocks length mismatch")
		}
		if in.Parent != nil {
			ps := preds[in.Parent]
			if len(ps) != len(in.Blocks) {
				return fmt.Errorf("phi has %d incoming, block has %d predecessors",
					len(in.Blocks), len(ps))
			}
			for _, p := range ps {
				found := false
				for _, ib := range in.Blocks {
					if ib == p {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("phi missing incoming for predecessor %%%s", p.Name)
				}
			}
		}
		for _, a := range in.Args {
			if !a.Type().Equal(in.Ty) {
				return fmt.Errorf("phi incoming type mismatch")
			}
		}
	case OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs one target")
		}
	case OpCondBr:
		if err := want(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("conditional br needs two targets")
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("branch condition must be i1")
		}
	case OpCall:
		if in.Callee == "" {
			return fmt.Errorf("call without callee")
		}
	}
	return nil
}
