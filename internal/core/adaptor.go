// Package core implements the paper's contribution: the MLIR HLS adaptor for
// LLVM IR. It rewrites the LLVM IR produced by mlir-translate (modern
// dialect: opaque pointers, descriptor ABI, current intrinsics) into
// "HLS-readable IR" — the restricted LLVM dialect the HLS toolchain's older
// in-tool LLVM accepts — while carrying MLIR-level optimization directives
// through as HLS loop metadata and interface annotations.
//
// The adaptor is organized as a fixed pipeline of IR fixes, each of which
// records what it changed so the flow can report the size of the version gap
// it closed (the paper's Table 2):
//
//  1. DescriptorToArray — collapse each expanded memref descriptor argument
//     group into a single statically-shaped array pointer parameter and
//     rewrite linearized address arithmetic onto it.
//  2. MallocToAlloca — turn constant-size heap allocation (malloc/free) into
//     entry-block static allocas, which HLS maps onto BRAM.
//  3. IntrinsicLegalize — replace modern intrinsics (llvm.exp.*,
//     llvm.fmuladd.*, llvm.memcpy/memset, lifetime markers) with forms the
//     HLS LLVM knows (libm calls, mul+add, explicit copy loops, nothing).
//  4. GEPCanonicalize — fold trivial pointer arithmetic (zero-index GEPs,
//     GEP-of-GEP chains) into the canonical single-GEP form.
//  5. SingleExit — merge multiple returns into one exit block.
//  6. InterfaceAnnotate — attach HLS interface/partition metadata to the
//     top function's ports from the directives that traveled with the IR.
//  7. Retype — switch the module to the typed-pointer HLS flavor.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llvm"
)

// FixKind classifies an adaptor rewrite.
type FixKind string

// Fix kinds, in pipeline order.
const (
	FixDescriptor FixKind = "descriptor-to-array"
	FixMalloc     FixKind = "malloc-to-alloca"
	FixIntrinsic  FixKind = "intrinsic-legalize"
	FixGEP        FixKind = "gep-canonicalize"
	FixExit       FixKind = "single-exit"
	FixInterface  FixKind = "interface-annotate"
	FixRetype     FixKind = "retype-pointers"
)

// Fix records one class of rewrite applied to one function.
type Fix struct {
	Kind   FixKind
	Func   string
	Detail string
	Count  int
}

// Report summarizes everything the adaptor changed.
type Report struct {
	Fixes []Fix
}

func (r *Report) add(kind FixKind, fn, detail string, count int) {
	if count == 0 {
		return
	}
	r.Fixes = append(r.Fixes, Fix{Kind: kind, Func: fn, Detail: detail, Count: count})
}

// Total returns the total number of individual rewrites.
func (r *Report) Total() int {
	n := 0
	for _, f := range r.Fixes {
		n += f.Count
	}
	return n
}

// CountByKind returns the rewrite count for one fix kind.
func (r *Report) CountByKind(kind FixKind) int {
	n := 0
	for _, f := range r.Fixes {
		if f.Kind == kind {
			n += f.Count
		}
	}
	return n
}

// String renders the report as a table.
func (r *Report) String() string {
	var sb strings.Builder
	byKind := map[FixKind][]Fix{}
	var kinds []string
	for _, f := range r.Fixes {
		if _, ok := byKind[f.Kind]; !ok {
			kinds = append(kinds, string(f.Kind))
		}
		byKind[f.Kind] = append(byKind[f.Kind], f)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		total := 0
		for _, f := range byKind[FixKind(k)] {
			total += f.Count
		}
		fmt.Fprintf(&sb, "%-22s %4d\n", k, total)
	}
	return sb.String()
}

// Options configures the adaptor.
type Options struct {
	// TopFunc overrides the top-function name; empty selects the function
	// carrying the hls.top attribute (or the only function).
	TopFunc string
}

// Adapt rewrites m in place into HLS-readable IR and reports the fixes.
func Adapt(m *llvm.Module, opts Options) (*Report, error) {
	rep := &Report{}
	top := FindTop(m, opts.TopFunc)
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		if err := descriptorToArray(f, rep); err != nil {
			return nil, fmt.Errorf("adaptor: @%s: %w", f.Name, err)
		}
		if err := mallocToAlloca(f, rep); err != nil {
			return nil, fmt.Errorf("adaptor: @%s: %w", f.Name, err)
		}
		if err := intrinsicLegalize(f, rep); err != nil {
			return nil, fmt.Errorf("adaptor: @%s: %w", f.Name, err)
		}
		gepCanonicalize(f, rep)
		singleExit(f, rep)
	}
	if top != nil {
		interfaceAnnotate(top, rep)
	}
	if m.Flavor != llvm.FlavorHLS {
		m.Flavor = llvm.FlavorHLS
		rep.add(FixRetype, "", "switched module to typed-pointer HLS dialect", 1)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("adaptor produced invalid IR: %w", err)
	}
	return rep, nil
}

// FindTop resolves the top function the way Adapt does: the named one,
// else the function carrying the hls.top attribute, else the module's only
// function; nil when none fits.
func FindTop(m *llvm.Module, name string) *llvm.Function {
	if name != "" {
		return m.FindFunc(name)
	}
	for _, f := range m.Funcs {
		if _, ok := f.Attrs["hls.top"]; ok {
			return f
		}
	}
	if len(m.Funcs) == 1 {
		return m.Funcs[0]
	}
	return nil
}
