package hls

import "repro/internal/llvm"

// addrOnly marks integer instructions whose results feed only address
// computations (GEP indices) or loop control (compares, branches, induction
// phis). HLS address-generation logic absorbs these, so they must not be
// costed as datapath operators — otherwise the direct-IR flow's explicit
// index arithmetic would be unfairly penalized against a frontend that hides
// the same math inside multi-dimensional accesses.
//
// The result, indexed by instruction number, is the greatest set of
// candidate instructions with no datapath use, where a use by a phi or by
// another candidate operator counts only while that user stays in the set.
// A worklist demotes candidates from the start set until none is left.
func (s *synth) addrOnly() []bool {
	n := len(s.instrs)
	cand := make([]bool, n)
	if s.tgt.DisableAddrFolding {
		return cand
	}
	for i, in := range s.instrs {
		cand[i] = isAddrCandidate(in)
	}
	// waits[waitOff[u]:waitOff[u+1]] lists the candidates whose use by
	// candidate u keeps them address-only only while u stays so.
	waitOff := make([]int32, n+1)
	var work []int32
	for u, in := range s.instrs {
		dep := usesWait(in)
		for _, a := range s.operands(int32(u)) {
			if a < 0 || !isAddrCandidate(s.instrs[a]) {
				continue
			}
			switch {
			case !dep && !usesFree(in), dep && !isAddrCandidate(in):
				if cand[a] {
					cand[a] = false
					work = append(work, a)
				}
			case dep:
				waitOff[u+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		waitOff[u+1] += waitOff[u]
	}
	waits := make([]int32, waitOff[n])
	for u, in := range s.instrs {
		if !usesWait(in) || !isAddrCandidate(in) {
			continue
		}
		k := waitOff[u]
		for _, a := range s.operands(int32(u)) {
			if a >= 0 && isAddrCandidate(s.instrs[a]) {
				waits[k] = a
				k++
			}
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range waits[waitOff[u]:waitOff[u+1]] {
			if cand[a] {
				cand[a] = false
				work = append(work, a)
			}
		}
	}
	return cand
}

// usesFree reports whether in's operands sit in index or control positions
// (or a gep's pointer operand), which never demote an address candidate.
func usesFree(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpGEP, llvm.OpICmp, llvm.OpCondBr, llvm.OpBr:
		return true
	}
	return false
}

// usesWait reports whether in's operands stay address-only exactly as long
// as in does: phis and address-candidate operators pass the value on.
func usesWait(in *llvm.Instr) bool {
	return !usesFree(in) && (in.Op == llvm.OpPhi || isAddrCandidate(in))
}

// isAddrCandidate reports whether in is an integer operator address
// generation could absorb.
func isAddrCandidate(in *llvm.Instr) bool {
	if in.Ty == nil || !in.Ty.IsInt() {
		return false
	}
	switch in.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul, llvm.OpShl, llvm.OpAShr,
		llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpZExt, llvm.OpSExt,
		llvm.OpTrunc, llvm.OpPhi, llvm.OpSDiv, llvm.OpSRem:
		return true
	}
	return false
}
