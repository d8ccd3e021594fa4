// Package hls implements the synthesis-estimator stand-in for the Xilinx
// Vitis HLS backend used in the paper's evaluation. It has two halves:
//
//   - a legality gate (Check) modeling the older in-tool LLVM frontend: it
//     rejects the modern-IR constructs that motivate the adaptor (opaque
//     pointers, descriptor ABIs, dynamic allocation, new intrinsics);
//   - a synthesis estimator (Synthesize) producing latency cycles, loop
//     initiation intervals, and LUT/FF/DSP/BRAM utilization from a
//     chaining-aware resource-constrained schedule, with modulo-scheduling
//     II = max(target, RecMII, ResMII) for pipelined loops.
//
// Absolute numbers are model numbers, not silicon numbers; the experiments
// compare flows through the same model, which preserves the paper's
// comparisons.
package hls

import (
	"fmt"
	"strings"

	"repro/internal/llvm"
)

// Violation is one reason the HLS frontend rejects a module.
type Violation struct {
	Func   string
	Kind   string
	Detail string
}

// String renders the violation with its kind and location.
func (v Violation) String() string {
	if v.Func == "" {
		return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("[%s] @%s: %s", v.Kind, v.Func, v.Detail)
}

// Violation kinds.
const (
	VOpaque       = "opaque-pointers"
	VDescriptor   = "descriptor-abi"
	VDynamicAlloc = "dynamic-allocation"
	VIntrinsic    = "unsupported-intrinsic"
	VInterface    = "unshaped-interface"
	VMultiExit    = "multiple-exits"
)

// supportedCalls is the older toolchain's call whitelist.
var supportedCalls = map[string]bool{
	"sqrt": true, "sqrtf": true, "exp": true, "expf": true,
	"fabs": true, "fabsf": true,
}

// callViolation returns the kind and detail of the reason the HLS frontend
// rejects a call to callee in m, or kind "" when it accepts the call: a
// dynamic allocation (even one m declares), an intrinsic, or a function m
// neither defines nor declares outside the supported math calls. Check and
// Conformance both read it, so the conformance whitelist rejects every call
// Check rejects.
func callViolation(m *llvm.Module, callee string) (kind, detail string) {
	switch {
	case callee == "malloc" || callee == "free":
		return VDynamicAlloc, "dynamic allocation (" + callee + ") cannot be synthesized"
	case strings.HasPrefix(callee, "llvm."):
		return VIntrinsic, "intrinsic " + callee + " unknown to the HLS LLVM"
	case !supportedCalls[callee] && m.FindFunc(callee) == nil:
		return VIntrinsic, "call to unknown function @" + callee
	}
	return "", ""
}

// Check returns every readability violation in the module. An empty result
// means the HLS frontend accepts the IR.
func Check(m *llvm.Module) []Violation {
	var out []Violation
	if m.Flavor != llvm.FlavorHLS {
		out = append(out, Violation{Kind: VOpaque,
			Detail: "module uses the modern opaque-pointer dialect; the HLS LLVM requires typed pointers"})
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		out = append(out, checkFunc(m, f)...)
	}
	return out
}

// descriptorParam reports whether a parameter name comes from a memref
// descriptor expansion: the base, aligned and offset fields and the
// per-dimension sizes and strides.
func descriptorParam(name string) bool {
	return strings.HasSuffix(name, "_aligned") || strings.HasSuffix(name, "_base") ||
		strings.HasSuffix(name, "_offset") || strings.Contains(name, "_stride") ||
		strings.Contains(name, "_size")
}

func checkFunc(m *llvm.Module, f *llvm.Function) []Violation {
	var out []Violation
	// Descriptor ABI leftovers: grouped base/aligned/offset params.
	for _, p := range f.Params {
		if descriptorParam(p.Name) {
			out = append(out, Violation{Func: f.Name, Kind: VDescriptor,
				Detail: fmt.Sprintf("parameter %%%s belongs to a memref descriptor expansion", p.Name)})
			continue
		}
		if p.Ty.IsPtr() && (p.Ty.Elem == nil || !(p.Ty.Elem.IsArray() || !p.Ty.Elem.IsPtr() && p.Ty.Elem.IsStruct())) {
			// A pointer param must carry a static array shape for BRAM
			// inference; scalar pointers are also rejected here.
			if p.Ty.Elem == nil || !p.Ty.Elem.IsArray() {
				out = append(out, Violation{Func: f.Name, Kind: VInterface,
					Detail: fmt.Sprintf("pointer parameter %%%s has no static array shape", p.Name)})
			}
		}
	}
	rets := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case llvm.OpCall:
				if kind, detail := callViolation(m, in.Callee); kind != "" {
					out = append(out, Violation{Func: f.Name, Kind: kind, Detail: detail})
				}
			case llvm.OpRet:
				rets++
			}
		}
	}
	if rets > 1 {
		out = append(out, Violation{Func: f.Name, Kind: VMultiExit,
			Detail: fmt.Sprintf("%d return sites; the control FSM requires one", rets)})
	}
	return out
}
