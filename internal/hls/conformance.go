package hls

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/llvm"
)

// This file is the strict HLS-readable-IR conformance gate: an explicit
// model of the accepted input subset of the old Vitis-era LLVM frontend,
// checked over every module the adaptor flow emits. Where Check rejects
// the handful of modern-IR constructs that motivate the adaptor, the
// conformance gate is a whitelist — every opcode, type, comparison
// predicate, and callee must be affirmatively inside the subset. Any
// post-adaptor construct outside it is an adaptor bug by definition, and
// is reported as a located diagnostic through internal/diag.

// Conformance opcode whitelist: the instruction set the old HLS frontend's
// scheduler and binder understand. Deliberately absent: bitcast, ptrtoint,
// inttoptr (type punning defeats BRAM inference), extractvalue/insertvalue
// (descriptor aggregates must have been dismantled), unreachable (the
// control FSM needs a single well-formed exit).
var conformantOps = map[llvm.Opcode]bool{
	llvm.OpAdd: true, llvm.OpSub: true, llvm.OpMul: true,
	llvm.OpSDiv: true, llvm.OpSRem: true,
	llvm.OpAnd: true, llvm.OpOr: true, llvm.OpXor: true,
	llvm.OpShl: true, llvm.OpLShr: true, llvm.OpAShr: true,
	llvm.OpFAdd: true, llvm.OpFSub: true, llvm.OpFMul: true,
	llvm.OpFDiv: true, llvm.OpFNeg: true,
	llvm.OpICmp: true, llvm.OpFCmp: true, llvm.OpSelect: true,
	llvm.OpZExt: true, llvm.OpSExt: true, llvm.OpTrunc: true,
	llvm.OpSIToFP: true, llvm.OpFPToSI: true,
	llvm.OpFPExt: true, llvm.OpFPTrunc: true,
	llvm.OpLoad: true, llvm.OpStore: true, llvm.OpGEP: true,
	llvm.OpAlloca: true, llvm.OpPhi: true,
	llvm.OpBr: true, llvm.OpCondBr: true, llvm.OpRet: true,
	llvm.OpCall: true,
}

// conformantIntPreds / conformantFloatPreds are the comparison predicates
// the backend's comparator library implements (signed and ordered only —
// the kernels' index/f32 arithmetic never needs unsigned or unordered
// forms, and the old frontend did not model them).
var conformantIntPreds = map[string]bool{
	"eq": true, "ne": true, "slt": true, "sle": true, "sgt": true, "sge": true,
}

var conformantFloatPreds = map[string]bool{
	"oeq": true, "one": true, "olt": true, "ole": true, "ogt": true, "oge": true,
}

// Conformance checks every defined function of m against the old HLS
// LLVM's accepted subset and returns one located error diagnostic per
// violation (empty = fully conformant). It subsumes Check's blacklist: a
// module with readable-subset violations also fails conformance.
func Conformance(m *llvm.Module) diag.Diagnostics {
	var ds diag.Diagnostics
	if m.Flavor != llvm.FlavorHLS {
		ds = append(ds, diag.Diagnostic{
			Severity: diag.SevError, Check: "conformance-flavor",
			Message:  "module is not in the HLS (typed-pointer) dialect",
			BlockPos: -1, InstrPos: -1,
		})
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		ds = append(ds, conformFunc(m, f)...)
	}
	ds.Sort()
	return ds
}

func conformFunc(m *llvm.Module, f *llvm.Function) diag.Diagnostics {
	var ds diag.Diagnostics
	fnDiag := func(check, msg, suggestion string) {
		ds = append(ds, diag.Diagnostic{
			Severity: diag.SevError, Check: check, Func: f.Name,
			Message: msg, Suggestion: suggestion, BlockPos: -1, InstrPos: -1,
		})
	}

	for _, p := range f.Params {
		if descriptorParam(p.Name) {
			fnDiag("conformance-descriptor-param",
				fmt.Sprintf("parameter %%%s is a memref-descriptor leftover", p.Name),
				"the adaptor's descriptor-to-array rewrite did not fire for this argument")
			continue
		}
		if !conformantParamType(p.Ty) {
			fnDiag("conformance-param-type",
				fmt.Sprintf("parameter %%%s has type outside the HLS subset", p.Name),
				"interface parameters must be scalars or pointers to statically-shaped arrays")
		}
	}
	if !f.Ret.IsVoid() && !conformantScalar(f.Ret) {
		fnDiag("conformance-return-type", "return type outside the HLS subset", "")
	}

	rets := 0
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			loc := func(check, msg string) {
				name := in.Name
				if name == "" {
					name = string(in.Op)
				}
				ds = append(ds, diag.Diagnostic{
					Severity: diag.SevError, Check: check, Func: f.Name,
					Block: b.Name, Instr: name, Message: msg,
					BlockPos: bi, InstrPos: ii,
				})
			}
			if !conformantOps[in.Op] {
				loc("conformance-opcode", fmt.Sprintf("opcode %q outside the HLS subset", in.Op))
				continue
			}
			if in.HasResult() && !conformantValueType(in.Ty) {
				loc("conformance-type", "result type outside the HLS subset")
			}
			switch in.Op {
			case llvm.OpICmp:
				if !conformantIntPreds[in.Pred] {
					loc("conformance-predicate", fmt.Sprintf("icmp predicate %q outside the HLS subset", in.Pred))
				}
			case llvm.OpFCmp:
				if !conformantFloatPreds[in.Pred] {
					loc("conformance-predicate", fmt.Sprintf("fcmp predicate %q outside the HLS subset", in.Pred))
				}
			case llvm.OpCall:
				if kind, detail := callViolation(m, in.Callee); kind != "" {
					loc("conformance-call", detail)
				}
			case llvm.OpAlloca:
				if in.SrcElem == nil || !conformantMemType(in.SrcElem) {
					loc("conformance-alloca", "alloca of a type outside the HLS subset")
				}
			case llvm.OpRet:
				rets++
			}
		}
	}
	if rets > 1 {
		fnDiag("conformance-multi-exit",
			fmt.Sprintf("%d return sites; the control FSM requires one", rets), "")
	}
	return ds
}

// conformantScalar accepts the scalar value types the backend models:
// i1/i8/i32/i64, float, double.
func conformantScalar(t *llvm.Type) bool {
	if t == nil {
		return false
	}
	if t.IsInt() {
		switch t.Bits {
		case 1, 8, 32, 64:
			return true
		}
		return false
	}
	return t.IsFP()
}

// conformantMemType accepts what may live in memory: scalars and
// (possibly nested) statically-sized arrays of them.
func conformantMemType(t *llvm.Type) bool {
	for t != nil && t.IsArray() {
		if t.N <= 0 {
			return false
		}
		t = t.Elem
	}
	return conformantScalar(t)
}

// conformantParamType accepts scalars and typed pointers to
// statically-shaped arrays (the BRAM-mappable interface forms).
func conformantParamType(t *llvm.Type) bool {
	if conformantScalar(t) {
		return true
	}
	if t.IsPtr() && t.Elem != nil && t.Elem.IsArray() {
		return conformantMemType(t.Elem)
	}
	return false
}

// conformantValueType accepts SSA value types: scalars plus typed
// pointers into conformant memory.
func conformantValueType(t *llvm.Type) bool {
	if conformantScalar(t) {
		return true
	}
	if t.IsPtr() {
		return t.Elem != nil && conformantMemType(t.Elem)
	}
	return false
}
