package mlir

// CloneOp deep-copies op, remapping operands through vmap (values missing
// from vmap are used as-is, which is correct for values defined outside the
// cloned subtree). Cloned results and region block arguments are added to
// vmap so later clones see them. Successor blocks are remapped through bmap
// when present.
func CloneOp(op *Op, vmap map[*Value]*Value, bmap map[*Block]*Block) *Op {
	mapped := func(v *Value) *Value {
		if nv, ok := vmap[v]; ok {
			return nv
		}
		return v
	}
	operands := make([]*Value, len(op.Operands))
	for i, v := range op.Operands {
		operands[i] = mapped(v)
	}
	resultTypes := make([]*Type, len(op.Results))
	for i, r := range op.Results {
		resultTypes[i] = r.Type()
	}
	clone := NewOp(op.Name, operands, resultTypes)
	clone.Attrs = append(clone.Attrs, op.Attrs...)
	for i, r := range op.Results {
		vmap[r] = clone.Results[i]
	}
	for _, s := range op.Succs {
		if bmap != nil {
			if nb, ok := bmap[s]; ok {
				clone.Succs = append(clone.Succs, nb)
				continue
			}
		}
		clone.Succs = append(clone.Succs, s)
	}
	for _, r := range op.Regions {
		nr := clone.AddRegion()
		// First create all blocks so forward branch references resolve.
		newBlocks := make([]*Block, len(r.Blocks))
		for bi, b := range r.Blocks {
			nb := NewBlock()
			for _, a := range b.Args {
				na := nb.AddArg(a.Type())
				vmap[a] = na
			}
			newBlocks[bi] = nb
			nr.AddBlock(nb)
			if bmap == nil {
				bmap = map[*Block]*Block{}
			}
			bmap[b] = nb
		}
		for bi, b := range r.Blocks {
			for _, o := range b.Ops {
				newBlocks[bi].Append(CloneOp(o, vmap, bmap))
			}
		}
	}
	return clone
}

// CloneBlockOpsInto clones every op of src (except its terminator when
// dropTerminator is set) into dst, remapping through vmap.
func CloneBlockOpsInto(src, dst *Block, vmap map[*Value]*Value, dropTerminator bool) {
	for i, op := range src.Ops {
		if dropTerminator && i == len(src.Ops)-1 && op.IsTerminator() {
			break
		}
		dst.Append(CloneOp(op, vmap, nil))
	}
}
