package hls

import (
	"fmt"
	"strings"

	"repro/internal/llvm"
)

// OpCost describes one operator's timing and area in the target device
// model (7-series-like, default 10ns clock).
type OpCost struct {
	// Latency is the pipeline depth in cycles (0 = combinational).
	Latency int
	// Delay is the combinational delay in ns (per stage for multi-cycle).
	Delay float64
	// DSP, LUT, FF are the area costs of one operator instance.
	DSP int
	LUT int
	FF  int
}

// Target models the device and clock.
type Target struct {
	// ClockNs is the target clock period in ns.
	ClockNs float64
	// BRAMBits is the capacity of one BRAM bank (18Kb).
	BRAMBits int64
	// MemPorts is the number of same-array accesses per cycle (dual-port).
	MemPorts int
	// MemReadLatency is the BRAM read latency in cycles.
	MemReadLatency int

	// DisableAddrFolding turns off the address-generation cost model that
	// treats index arithmetic as free-ish AGU logic. With it disabled,
	// index muls/adds are costed like datapath operators — the ablation
	// showing why an HLS cost model must fold address math (the direct-IR
	// flow would otherwise be unfairly penalized for its explicit
	// linearized addressing).
	DisableAddrFolding bool

	// CostModel selects how operator widths are chosen: CostDeclared (the
	// zero value) takes them from declared types, CostInferred from the
	// bitwidth analysis (see ResolveWidths).
	CostModel CostModel

	// widths holds per-instruction inferred operator widths, consulted only
	// under CostInferred (set by ResolveWidths / WithInferredWidths).
	widths map[*llvm.Instr]int
}

// CostModel names a width source for the operator cost model.
type CostModel string

const (
	// CostDeclared prices operators at their declared type widths.
	CostDeclared CostModel = ""
	// CostInferred prices operators at bitwidth-analysis widths.
	CostInferred CostModel = "inferred"
)

// Canon renders the target's cost-model parameters in a canonical form,
// the shared currency of the engine's whole-flow cache key and the
// incremental layer's synthesis-unit key.
func (t Target) Canon() string {
	s := fmt.Sprintf("clock=%g|brambits=%d|memports=%d|memlat=%d|noaddrfold=%t",
		t.ClockNs, t.BRAMBits, t.MemPorts, t.MemReadLatency, t.DisableAddrFolding)
	// The declared model keeps the historical key byte-for-byte so caches
	// and goldens survive; only the inferred model tags itself.
	if t.CostModel != CostDeclared {
		s += "|costmodel=" + string(t.CostModel)
	}
	return s
}

// DefaultTarget returns the default 100 MHz dual-port-BRAM target.
func DefaultTarget() Target {
	return Target{ClockNs: 10, BRAMBits: 18 * 1024, MemPorts: 2, MemReadLatency: 2}
}

// CostOf returns the operator cost for an instruction under the target.
func (t Target) CostOf(in *llvm.Instr) OpCost { return t.costOf(in, false) }

// costOf is CostOf for an instruction the synthesizer may have classified as
// address-only (see addrOnly): the address generation units absorb it.
func (t Target) costOf(in *llvm.Instr, addrOnly bool) OpCost {
	if t.CostModel == CostInferred {
		if c, ok := t.inferredCostOf(in, addrOnly); ok {
			return c
		}
	}
	if addrOnly {
		// Folded into address generation / loop control: combinational,
		// LUT-only, regardless of the nominal operator cost.
		return OpCost{Latency: 0, Delay: 1.8, LUT: intWidthLUT(in.Ty)}
	}
	isDouble := in.Ty != nil && in.Ty.Kind == llvm.KindDouble
	switch in.Op {
	case llvm.OpFAdd, llvm.OpFSub:
		if isDouble {
			return OpCost{Latency: 7, Delay: 4.3, DSP: 3, LUT: 800, FF: 1200}
		}
		return OpCost{Latency: 4, Delay: 4.0, DSP: 2, LUT: 400, FF: 600}
	case llvm.OpFMul:
		if isDouble {
			return OpCost{Latency: 6, Delay: 4.5, DSP: 11, LUT: 300, FF: 600}
		}
		return OpCost{Latency: 3, Delay: 4.2, DSP: 3, LUT: 150, FF: 300}
	case llvm.OpFDiv:
		if isDouble {
			return OpCost{Latency: 29, Delay: 5.0, DSP: 0, LUT: 3200, FF: 6000}
		}
		return OpCost{Latency: 12, Delay: 5.0, DSP: 0, LUT: 800, FF: 1500}
	case llvm.OpFNeg:
		return OpCost{Latency: 0, Delay: 0.8, LUT: 30, FF: 0}
	case llvm.OpAdd, llvm.OpSub:
		return OpCost{Latency: 0, Delay: 1.8, LUT: intWidthLUT(in.Ty), FF: 0}
	case llvm.OpMul:
		w := 32
		if in.Ty != nil {
			w = in.Ty.Bits
		}
		if w > 32 {
			return OpCost{Latency: 3, Delay: 4.5, DSP: 8, LUT: 200, FF: 400}
		}
		return OpCost{Latency: 2, Delay: 4.0, DSP: 3, LUT: 100, FF: 200}
	case llvm.OpSDiv, llvm.OpSRem:
		return OpCost{Latency: 35, Delay: 5.0, LUT: 1800, FF: 3500}
	case llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpShl, llvm.OpLShr, llvm.OpAShr:
		return OpCost{Latency: 0, Delay: 0.9, LUT: intWidthLUT(in.Ty)}
	case llvm.OpICmp:
		return OpCost{Latency: 0, Delay: 1.5, LUT: 40}
	case llvm.OpFCmp:
		if in.Args[0].Type().Kind == llvm.KindDouble {
			return OpCost{Latency: 1, Delay: 3.0, LUT: 120, FF: 100}
		}
		return OpCost{Latency: 1, Delay: 3.0, LUT: 70, FF: 60}
	case llvm.OpSelect:
		return OpCost{Latency: 0, Delay: 1.2, LUT: 35}
	case llvm.OpZExt, llvm.OpSExt, llvm.OpTrunc, llvm.OpBitcast,
		llvm.OpPtrToInt, llvm.OpIntToPtr:
		return OpCost{Latency: 0, Delay: 0.0}
	case llvm.OpSIToFP, llvm.OpFPToSI:
		return OpCost{Latency: 3, Delay: 4.0, LUT: 250, FF: 300}
	case llvm.OpFPExt, llvm.OpFPTrunc:
		return OpCost{Latency: 1, Delay: 2.0, LUT: 100, FF: 80}
	case llvm.OpLoad:
		return OpCost{Latency: t.MemReadLatency, Delay: 2.5}
	case llvm.OpStore:
		return OpCost{Latency: 1, Delay: 2.0}
	case llvm.OpGEP:
		// Address computation (adders folded into the port).
		return OpCost{Latency: 0, Delay: 1.5, LUT: 50}
	case llvm.OpCall:
		return t.callCost(in)
	case llvm.OpPhi, llvm.OpBr, llvm.OpCondBr, llvm.OpRet, llvm.OpAlloca,
		llvm.OpUnreachable, llvm.OpExtractValue, llvm.OpInsertValue:
		return OpCost{Latency: 0, Delay: 0}
	}
	return OpCost{Latency: 1, Delay: 3.0, LUT: 100}
}

func (t Target) callCost(in *llvm.Instr) OpCost {
	name := in.Callee
	switch {
	case strings.HasPrefix(name, "sqrt") || strings.HasPrefix(name, "llvm.sqrt"):
		if strings.HasSuffix(name, "f64") || name == "sqrt" {
			return OpCost{Latency: 28, Delay: 5.0, LUT: 3000, FF: 5600}
		}
		return OpCost{Latency: 16, Delay: 5.0, LUT: 800, FF: 1500}
	case strings.HasPrefix(name, "exp") || strings.HasPrefix(name, "llvm.exp"):
		return OpCost{Latency: 20, Delay: 5.0, DSP: 7, LUT: 1500, FF: 2500}
	case strings.HasPrefix(name, "llvm.fmuladd"):
		return OpCost{Latency: 7, Delay: 4.5, DSP: 5, LUT: 500, FF: 900}
	}
	// Sub-function call: scheduled separately; placeholder cost.
	return OpCost{Latency: 1, Delay: 2.0}
}

func intWidthLUT(t *llvm.Type) int {
	if t == nil || !t.IsInt() {
		return 32
	}
	return lutWidth(t.Bits)
}

// lutWidth snaps a width onto the deterministic LUT-costing grid: unknown or
// nonpositive widths price as 32, a single bit stays 1, anything else rounds
// up to the next even width and clamps at 64. The kernel-relevant widths
// (1, 8, 32, 64) are fixed points, so declared-model costs are unchanged.
func lutWidth(w int) int {
	switch {
	case w <= 0:
		return 32
	case w == 1:
		return 1
	case w >= 64:
		return 64
	}
	return (w + 1) &^ 1
}
