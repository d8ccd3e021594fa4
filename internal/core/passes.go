package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/llvm"
)

// memrefArgAttrPrefix matches translate.MemRefArgAttr without importing the
// package (the adaptor consumes IR, not the translator).
const memrefArgAttrPrefix = "memref.arg"

// decodeShape parses "4x4xf64" into dims and the LLVM element type.
func decodeShape(s string) (dims []int64, elem *llvm.Type, err error) {
	parts := strings.Split(s, "x")
	if len(parts) < 1 {
		return nil, nil, fmt.Errorf("bad shape %q", s)
	}
	switch parts[len(parts)-1] {
	case "f32":
		elem = llvm.FloatT()
	case "f64":
		elem = llvm.DoubleT()
	case "i32":
		elem = llvm.I32()
	case "i64", "index":
		elem = llvm.I64()
	case "i8":
		elem = llvm.I8()
	default:
		return nil, nil, fmt.Errorf("bad element in shape %q", s)
	}
	for _, d := range parts[:len(parts)-1] {
		n, err := strconv.ParseInt(d, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad dim in shape %q", s)
		}
		dims = append(dims, n)
	}
	return dims, elem, nil
}

// descriptorToArray collapses expanded memref descriptor parameter groups
// into single statically-shaped array pointers and retargets the address
// arithmetic. This is the fix that makes BRAM inference possible at all:
// without a shaped array parameter the HLS memory mapper has nothing to map.
func descriptorToArray(f *llvm.Function, rep *Report) error {
	type group struct {
		argIdx   int
		start    int // index into f.Params
		rank     int
		dims     []int64
		elem     *llvm.Type
		numElems int64
		shaped   *llvm.Param // the array pointer replacing the group
	}
	var groups []group

	// Identify groups by walking params against the recorded memref attrs.
	pi := 0
	argIdx := 0
	for pi < len(f.Params) {
		shape, ok := f.Attrs[fmt.Sprintf("%s%d", memrefArgAttrPrefix, argIdx)]
		if !ok {
			pi++
			argIdx++
			continue
		}
		dims, elem, err := decodeShape(shape)
		if err != nil {
			return err
		}
		rank := len(dims)
		n := int64(1)
		for _, d := range dims {
			n *= d
		}
		groups = append(groups, group{argIdx: argIdx, start: pi, rank: rank,
			dims: dims, elem: elem, numElems: n})
		pi += 3 + 2*rank
		argIdx++
	}
	if len(groups) == 0 {
		return nil
	}

	// repl[i] replaces old parameter i, nil for a parameter that stays:
	// the shaped param for a group's base and aligned pointers, constants
	// for its offset (0) and static sizes and strides. gepTo[i] is the
	// group, plus one, that a GEP on parameter i is retargeted to.
	repl := make([]llvm.Value, len(f.Params))
	gepTo := make([]int, len(f.Params))
	var newParams []*llvm.Param
	gi := 0
	for i := 0; i < len(f.Params); {
		if gi < len(groups) && groups[gi].start == i {
			g := &groups[gi]
			g.shaped = &llvm.Param{Name: fmt.Sprintf("arg%d", g.argIdx),
				Ty: llvm.Ptr(llvm.ArrayOf(g.numElems, g.elem))}
			np := g.shaped
			newParams = append(newParams, np)
			gepTo[i], gepTo[i+1] = gi+1, gi+1

			repl[i], repl[i+1] = np, np
			repl[i+2] = llvm.CI(llvm.I64(), 0)
			s := int64(1)
			for d := g.rank - 1; d >= 0; d-- {
				repl[i+3+d] = llvm.CI(llvm.I64(), g.dims[d])
				repl[i+3+g.rank+d] = llvm.CI(llvm.I64(), s)
				s *= g.dims[d]
			}
			// Record the shape for the interface pass.
			shapeStr := make([]string, g.rank)
			for d, dim := range g.dims {
				shapeStr[d] = fmt.Sprintf("%d", dim)
			}
			f.SetAttr(fmt.Sprintf("hls.array.arg%d", g.argIdx), strings.Join(shapeStr, "x"))
			delete(f.Attrs, fmt.Sprintf("%s%d", memrefArgAttrPrefix, g.argIdx))

			i += 3 + 2*g.rank
			gi++
			continue
		}
		newParams = append(newParams, f.Params[i])
		i++
	}
	// One walk retargets every GEP on a group's base or aligned pointer to
	// the shaped param, and replaces every other use of a descriptor param.
	gepsRewritten := 0
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == llvm.OpGEP {
				if k := paramIndex(f.Params, in.Args[0]); k >= 0 && gepTo[k] > 0 {
					g := groups[gepTo[k]-1]
					lin := in.Args[1]
					in.SrcElem = g.shaped.Ty.Elem
					in.Args = []llvm.Value{g.shaped, llvm.CI(llvm.I64(), 0), lin}
					in.Ty = llvm.Ptr(g.elem)
					gepsRewritten++
				}
			}
			for j, a := range in.Args {
				if k := paramIndex(f.Params, a); k >= 0 && repl[k] != nil {
					in.Args[j] = repl[k]
				}
			}
		}
	}
	rep.add(FixDescriptor, f.Name,
		fmt.Sprintf("collapsed %d descriptor groups (%d params -> %d), rewrote %d geps",
			len(groups), len(f.Params), len(newParams), gepsRewritten),
		len(groups)+gepsRewritten)
	f.Params = newParams
	return nil
}

// paramIndex returns the index of v in params, or -1 when v is no
// parameter of them.
func paramIndex(params []*llvm.Param, v llvm.Value) int {
	p, ok := v.(*llvm.Param)
	if !ok {
		return -1
	}
	for i, q := range params {
		if q == p {
			return i
		}
	}
	return -1
}

// mallocElem is the element type a malloc'd buffer of size bytes becomes an
// array of: the pointee its result type records or, for opaque-pointer IR
// parsed back from text (which records none), the type its first GEP
// indexes — so a module rebuilt from its printed form adapts exactly like
// the in-memory one. It falls back to bytes.
func mallocElem(f *llvm.Function, malloc *llvm.Instr, size int64) *llvm.Type {
	if malloc.Ty.IsPtr() && malloc.Ty.Elem != nil {
		return malloc.Ty.Elem
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpGEP || len(in.Args) == 0 || in.Args[0] != malloc {
				continue
			}
			if t := in.SrcElem; t != nil && t.SizeBytes() > 0 && size%t.SizeBytes() == 0 {
				return t
			}
			return llvm.I8()
		}
	}
	return llvm.I8()
}

// mallocToAlloca converts constant-size malloc calls into entry-block static
// allocas and deletes the matching frees. HLS tools reject dynamic
// allocation outright.
func mallocToAlloca(f *llvm.Function, rep *Report) error {
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	count := 0
	for _, blk := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), blk.Instrs...)
		for _, in := range instrs {
			if in.Op != llvm.OpCall || in.Callee != "malloc" {
				continue
			}
			size, ok := in.Args[0].(*llvm.ConstInt)
			if !ok {
				return fmt.Errorf("dynamic malloc size cannot be staticized")
			}
			elem := mallocElem(f, in, size.Val)
			n := size.Val / elem.SizeBytes()
			arrTy := llvm.ArrayOf(n, elem)
			alloca := &llvm.Instr{Op: llvm.OpAlloca, Name: in.Name + "_buf",
				Ty: llvm.Ptr(arrTy), SrcElem: arrTy}
			decay := &llvm.Instr{Op: llvm.OpGEP, Name: in.Name + "_decay",
				Ty: llvm.Ptr(elem), SrcElem: arrTy,
				Args: []llvm.Value{alloca, llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 0)}}
			// Static allocas belong at the top of the entry block.
			first := entry.Instrs[0]
			entry.InsertBefore(alloca, first)
			entry.InsertBefore(decay, first)
			f.ReplaceAllUses(in, decay)
			blk.Remove(in)
			count++
		}
	}
	// Delete frees (their pointees are now stack storage).
	freed := 0
	for _, blk := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), blk.Instrs...)
		for _, in := range instrs {
			if in.Op == llvm.OpCall && in.Callee == "free" {
				blk.Remove(in)
				freed++
			}
		}
	}
	rep.add(FixMalloc, f.Name,
		fmt.Sprintf("staticized %d mallocs, removed %d frees", count, freed),
		count+freed)
	return nil
}

// intrinsicLegalize rewrites modern intrinsics into forms the HLS LLVM
// accepts.
func intrinsicLegalize(f *llvm.Function, rep *Report) error {
	count := 0
	for _, blk := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), blk.Instrs...)
		for _, in := range instrs {
			if in.Op != llvm.OpCall {
				continue
			}
			switch {
			case strings.HasPrefix(in.Callee, "llvm.lifetime."):
				blk.Remove(in)
				count++
			case in.Callee == "llvm.exp.f64":
				in.Callee = "exp"
				count++
			case in.Callee == "llvm.exp.f32":
				in.Callee = "expf"
				count++
			case in.Callee == "llvm.sqrt.f64":
				in.Callee = "sqrt"
				count++
			case in.Callee == "llvm.sqrt.f32":
				in.Callee = "sqrtf"
				count++
			case strings.HasPrefix(in.Callee, "llvm.fmuladd."):
				mul := &llvm.Instr{Op: llvm.OpFMul, Name: in.Name + "_m", Ty: in.Ty,
					Args: []llvm.Value{in.Args[0], in.Args[1]}}
				add := &llvm.Instr{Op: llvm.OpFAdd, Name: in.Name + "_a", Ty: in.Ty,
					Args: []llvm.Value{mul, in.Args[2]}}
				blk.InsertBefore(mul, in)
				blk.InsertBefore(add, in)
				f.ReplaceAllUses(in, add)
				blk.Remove(in)
				count++
			case strings.HasPrefix(in.Callee, "llvm.memset.") ||
				strings.HasPrefix(in.Callee, "llvm.memcpy."):
				if err := expandMemIntrinsic(f, blk, in); err != nil {
					return err
				}
				count++
			}
		}
	}
	rep.add(FixIntrinsic, f.Name, "legalized modern intrinsics", count)
	return nil
}

// expandMemIntrinsic expands constant-length memset/memcpy into straight-
// line byte stores/loads (lengths here are small local buffers).
func expandMemIntrinsic(f *llvm.Function, blk *llvm.Block, in *llvm.Instr) error {
	n, ok := in.Args[len(in.Args)-1].(*llvm.ConstInt)
	if !ok {
		return fmt.Errorf("variable-length %s cannot be legalized", in.Callee)
	}
	if n.Val > 4096 {
		return fmt.Errorf("%s of %d bytes too large to expand", in.Callee, n.Val)
	}
	isSet := strings.HasPrefix(in.Callee, "llvm.memset.")
	for i := int64(0); i < n.Val; i++ {
		dst := &llvm.Instr{Op: llvm.OpGEP, Name: fmt.Sprintf("%s_d%d", in.Name, i),
			Ty: llvm.Ptr(llvm.I8()), SrcElem: llvm.I8(),
			Args: []llvm.Value{in.Args[0], llvm.CI(llvm.I64(), i)}}
		blk.InsertBefore(dst, in)
		var v llvm.Value
		if isSet {
			v = in.Args[1]
		} else {
			src := &llvm.Instr{Op: llvm.OpGEP, Name: fmt.Sprintf("%s_s%d", in.Name, i),
				Ty: llvm.Ptr(llvm.I8()), SrcElem: llvm.I8(),
				Args: []llvm.Value{in.Args[1], llvm.CI(llvm.I64(), i)}}
			blk.InsertBefore(src, in)
			ld := &llvm.Instr{Op: llvm.OpLoad, Name: fmt.Sprintf("%s_l%d", in.Name, i),
				Ty: llvm.I8(), SrcElem: llvm.I8(), Args: []llvm.Value{src}}
			blk.InsertBefore(ld, in)
			v = ld
		}
		st := &llvm.Instr{Op: llvm.OpStore, SrcElem: llvm.I8(), Args: []llvm.Value{v, dst}}
		blk.InsertBefore(st, in)
	}
	blk.Remove(in)
	_ = f
	return nil
}

// gepCanonicalize folds trivial pointer arithmetic: zero-index GEPs
// disappear and GEP-of-GEP chains over the same array collapse into one.
func gepCanonicalize(f *llvm.Function, rep *Report) {
	count := 0
	for _, blk := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), blk.Instrs...)
		for _, in := range instrs {
			if in.Op != llvm.OpGEP {
				continue
			}
			// gep T, p, 0  →  p
			if len(in.Args) == 2 {
				if c, ok := in.Args[1].(*llvm.ConstInt); ok && c.Val == 0 {
					f.ReplaceAllUses(in, in.Args[0])
					blk.Remove(in)
					count++
					continue
				}
			}
			// gep e, (gep [N x e], p, 0, i), j  →  gep [N x e], p, 0, i+j
			base, ok := in.Args[0].(*llvm.Instr)
			if !ok || base.Op != llvm.OpGEP || len(in.Args) != 2 || len(base.Args) != 3 {
				continue
			}
			if !base.SrcElem.IsArray() || !base.SrcElem.Elem.Equal(in.SrcElem) {
				continue
			}
			zero, ok := base.Args[1].(*llvm.ConstInt)
			if !ok || zero.Val != 0 {
				continue
			}
			inner := base.Args[2]
			outer := in.Args[1]
			var idx llvm.Value
			ic, iok := inner.(*llvm.ConstInt)
			oc, ook := outer.(*llvm.ConstInt)
			switch {
			case iok && ook:
				idx = llvm.CI(llvm.I64(), ic.Val+oc.Val)
			case iok && ic.Val == 0:
				idx = outer
			case ook && oc.Val == 0:
				idx = inner
			default:
				add := &llvm.Instr{Op: llvm.OpAdd, Name: in.Name + "_idx", Ty: llvm.I64(),
					Args: []llvm.Value{inner, outer}}
				blk.InsertBefore(add, in)
				idx = add
			}
			in.SrcElem = base.SrcElem
			in.Args = []llvm.Value{base.Args[0], llvm.CI(llvm.I64(), 0), idx}
			count++
		}
	}
	// Clean up GEPs left without uses.
	for _, blk := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), blk.Instrs...)
		for _, in := range instrs {
			if in.Op == llvm.OpGEP && !f.HasUses(in) {
				blk.Remove(in)
			}
		}
	}
	rep.add(FixGEP, f.Name, "canonicalized pointer arithmetic", count)
}

// singleExit merges multiple return blocks into one (HLS control FSMs want a
// unique done state).
func singleExit(f *llvm.Function, rep *Report) {
	var rets []*llvm.Instr
	for _, blk := range f.Blocks {
		if t := blk.Terminator(); t != nil && t.Op == llvm.OpRet {
			rets = append(rets, t)
		}
	}
	if len(rets) <= 1 {
		return
	}
	exit := f.AddBlock("hls_exit")
	var phi *llvm.Instr
	if len(rets[0].Args) > 0 {
		phi = &llvm.Instr{Op: llvm.OpPhi, Name: "hls_retval", Ty: rets[0].Args[0].Type()}
		exit.Append(phi)
		exit.Append(&llvm.Instr{Op: llvm.OpRet, Args: []llvm.Value{phi}})
	} else {
		exit.Append(&llvm.Instr{Op: llvm.OpRet})
	}
	for _, ret := range rets {
		blk := ret.Parent
		if phi != nil {
			phi.AddIncoming(ret.Args[0], blk)
		}
		blk.Remove(ret)
		br := &llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{exit}}
		blk.Append(br)
	}
	rep.add(FixExit, f.Name, fmt.Sprintf("merged %d returns", len(rets)), len(rets))
}

// interfaceAnnotate attaches HLS interface modes to the top function's ports
// and normalizes the array-partition directives carried from MLIR.
func interfaceAnnotate(f *llvm.Function, rep *Report) {
	count := 0
	for i, p := range f.Params {
		mode := "ap_none"
		if p.Ty.IsPtr() && p.Ty.Elem != nil && p.Ty.Elem.IsArray() {
			mode = "ap_memory"
		}
		p.Attrs = append(p.Attrs, `"hls.interface=`+mode+`"`)
		count++
		// Normalize MLIR partition payloads: `["cyclic", 2, 0]` → cyclic,2,0
		key := fmt.Sprintf("hls.array_partition.arg%d", i)
		if raw, ok := f.Attrs[key]; ok {
			f.Attrs[key] = normalizePartition(raw)
			count++
		}
	}
	f.SetAttr("hls.top", "1")
	rep.add(FixInterface, f.Name, "annotated interface ports", count)
}

// partitionPunct strips the printed MLIR ArrayAttr punctuation.
var partitionPunct = strings.NewReplacer("[", "", "]", "", `"`, "", " ", "")

// normalizePartition converts the printed MLIR ArrayAttr payload into the
// compact form the backend parses.
func normalizePartition(raw string) string { return partitionPunct.Replace(raw) }
