package parser

import (
	"strconv"

	"repro/internal/llvm"
)

// binaryOps maps .ll mnemonics to opcodes for simple binary instructions.
var binaryOps = map[string]llvm.Opcode{
	"add": llvm.OpAdd, "sub": llvm.OpSub, "mul": llvm.OpMul,
	"sdiv": llvm.OpSDiv, "srem": llvm.OpSRem,
	"and": llvm.OpAnd, "or": llvm.OpOr, "xor": llvm.OpXor,
	"shl": llvm.OpShl, "lshr": llvm.OpLShr, "ashr": llvm.OpAShr,
	"fadd": llvm.OpFAdd, "fsub": llvm.OpFSub, "fmul": llvm.OpFMul, "fdiv": llvm.OpFDiv,
}

var castOps = map[string]llvm.Opcode{
	"zext": llvm.OpZExt, "sext": llvm.OpSExt, "trunc": llvm.OpTrunc,
	"sitofp": llvm.OpSIToFP, "fptosi": llvm.OpFPToSI,
	"fpext": llvm.OpFPExt, "fptrunc": llvm.OpFPTrunc,
	"bitcast": llvm.OpBitcast, "ptrtoint": llvm.OpPtrToInt, "inttoptr": llvm.OpIntToPtr,
}

// parseInstr parses one instruction line into blk.
func (p *llParser) parseInstr(f *llvm.Function, blk *llvm.Block) error {
	var resName string
	if p.cur().kind == tLocal {
		resName = p.next().text
		if err := p.expect("="); err != nil {
			return err
		}
	}
	op := p.cur()
	if op.kind != tIdent {
		return p.errf("expected instruction mnemonic")
	}
	mnemonic := op.text
	p.next()

	register := func(in *llvm.Instr) {
		blk.Append(in)
		if resName != "" {
			in.Name = resName
			p.values[resName] = in
		}
	}

	// operand parses an untyped value of known type with fixup support.
	operand := func(in *llvm.Instr, ty *llvm.Type) error {
		v, fwd, err := p.parseOperand(ty)
		if err != nil {
			return err
		}
		in.Args = append(in.Args, v)
		if fwd != "" {
			p.fixups = append(p.fixups, fixup{in: in, arg: len(in.Args) - 1, name: fwd, line: p.cur().line})
		}
		return nil
	}

	if opc, ok := binaryOps[mnemonic]; ok {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: opc, Ty: ty})
		if err := operand(in, ty); err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		if err := operand(in, ty); err != nil {
			return err
		}
		register(in)
		return nil
	}

	if opc, ok := castOps[mnemonic]; ok {
		in := p.instr(llvm.Instr{Op: opc})
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		if !p.isIdent("to") {
			return p.errf("expected 'to' in cast")
		}
		p.next()
		to, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = to
		register(in)
		return nil
	}

	switch mnemonic {
	case "fneg":
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpFNeg, Ty: ty})
		if err := operand(in, ty); err != nil {
			return err
		}
		register(in)
		return nil

	case "icmp", "fcmp":
		pred := p.cur()
		if pred.kind != tIdent {
			return p.errf("expected predicate")
		}
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		opc := llvm.OpICmp
		if mnemonic == "fcmp" {
			opc = llvm.OpFCmp
		}
		in := p.instr(llvm.Instr{Op: opc, Ty: llvm.I1(), Pred: pred.text})
		if err := operand(in, ty); err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		if err := operand(in, ty); err != nil {
			return err
		}
		register(in)
		return nil

	case "select":
		in := p.instr(llvm.Instr{Op: llvm.OpSelect})
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		ty, err := p.typedOperand(in)
		if err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		in.Ty = ty
		register(in)
		return nil

	case "load":
		elem, err := p.parseType()
		if err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpLoad, Ty: elem, SrcElem: elem})
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		p.maybeAlign(in)
		register(in)
		return nil

	case "store":
		in := p.instr(llvm.Instr{Op: llvm.OpStore})
		ty, err := p.typedOperand(in)
		if err != nil {
			return err
		}
		in.SrcElem = ty
		if err := p.expect(","); err != nil {
			return err
		}
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		p.maybeAlign(in)
		register(in)
		return nil

	case "getelementptr":
		if p.isIdent("inbounds") {
			p.next()
		}
		src, err := p.parseType()
		if err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpGEP, SrcElem: src})
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		for p.isPunct(",") {
			p.next()
			if _, err := p.typedOperand(in); err != nil {
				return err
			}
		}
		in.Ty = llvm.Ptr(llvm.GEPResultElem(src, len(in.Args)-1))
		register(in)
		return nil

	case "alloca":
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpAlloca, Ty: llvm.Ptr(ty), SrcElem: ty})
		if p.isPunct(",") {
			p.next()
			p.maybeAlignBare(in)
		}
		register(in)
		return nil

	case "phi":
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpPhi, Ty: ty})
		for {
			if err := p.expect("["); err != nil {
				return err
			}
			if err := operand(in, ty); err != nil {
				return err
			}
			if err := p.expect(","); err != nil {
				return err
			}
			pb := p.cur()
			if pb.kind != tLocal {
				return p.errf("expected incoming block")
			}
			p.next()
			in.Blocks = append(in.Blocks, p.getOrCreateBlock(f, pb.text))
			if err := p.expect("]"); err != nil {
				return err
			}
			if !p.isPunct(",") {
				break
			}
			p.next()
		}
		register(in)
		return nil

	case "br":
		if p.isIdent("label") {
			p.next()
			dest := p.cur()
			if dest.kind != tLocal {
				return p.errf("expected branch target")
			}
			p.next()
			in := p.instr(llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{p.getOrCreateBlock(f, dest.text)}})
			p.maybeLoopMD(in)
			register(in)
			return nil
		}
		in := p.instr(llvm.Instr{Op: llvm.OpCondBr})
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := p.expect(","); err != nil {
				return err
			}
			if !p.isIdent("label") {
				return p.errf("expected 'label'")
			}
			p.next()
			dest := p.cur()
			if dest.kind != tLocal {
				return p.errf("expected branch target")
			}
			p.next()
			in.Blocks = append(in.Blocks, p.getOrCreateBlock(f, dest.text))
		}
		p.maybeLoopMD(in)
		register(in)
		return nil

	case "ret":
		in := p.instr(llvm.Instr{Op: llvm.OpRet})
		if p.isIdent("void") {
			p.next()
			register(in)
			return nil
		}
		if _, err := p.typedOperand(in); err != nil {
			return err
		}
		register(in)
		return nil

	case "call":
		ret, err := p.parseType()
		if err != nil {
			return err
		}
		callee := p.cur()
		if callee.kind != tGlobal {
			return p.errf("expected callee")
		}
		p.next()
		if err := p.expect("("); err != nil {
			return err
		}
		in := p.instr(llvm.Instr{Op: llvm.OpCall, Ty: ret, Callee: callee.text})
		for !p.isPunct(")") {
			if _, err := p.typedOperand(in); err != nil {
				return err
			}
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		register(in)
		return nil

	case "extractvalue", "insertvalue":
		opc := llvm.OpExtractValue
		if mnemonic == "insertvalue" {
			opc = llvm.OpInsertValue
		}
		in := p.instr(llvm.Instr{Op: opc})
		aggTy, err := p.typedOperand(in)
		if err != nil {
			return err
		}
		if opc == llvm.OpInsertValue {
			if err := p.expect(","); err != nil {
				return err
			}
			if _, err := p.typedOperand(in); err != nil {
				return err
			}
		}
		for p.isPunct(",") {
			p.next()
			idx := p.cur()
			if idx.kind != tInt {
				return p.errf("expected aggregate index")
			}
			p.next()
			v, _ := strconv.Atoi(idx.text)
			in.Indices = append(in.Indices, v)
		}
		if opc == llvm.OpInsertValue {
			in.Ty = aggTy
		} else {
			in.Ty = extractType(aggTy, in.Indices)
		}
		register(in)
		return nil

	case "unreachable":
		register(p.instr(llvm.Instr{Op: llvm.OpUnreachable}))
		return nil
	}
	return p.errf("unknown instruction %q", mnemonic)
}

// maybeAlign consumes an optional ", align N" suffix.
func (p *llParser) maybeAlign(in *llvm.Instr) {
	if p.isPunct(",") && p.toks[p.pos+1].kind == tIdent && p.toks[p.pos+1].text == "align" {
		p.next()
		p.maybeAlignBare(in)
	}
}

func (p *llParser) maybeAlignBare(in *llvm.Instr) {
	if p.isIdent("align") {
		p.next()
		if p.cur().kind == tInt {
			v, _ := strconv.ParseInt(p.next().text, 10, 32)
			in.Align = int32(v)
		}
	}
}

// maybeLoopMD consumes an optional ", !llvm.loop !N" suffix.
func (p *llParser) maybeLoopMD(in *llvm.Instr) {
	if p.isPunct(",") && p.toks[p.pos+1].kind == tMDRef {
		p.next()
		ref := p.next() // "llvm.loop"
		if ref.text != "llvm.loop" {
			return
		}
		id := p.cur()
		if id.kind == tMDRef {
			p.next()
			p.mdUses = append(p.mdUses, mdUse{in: in, id: id.text})
		}
	}
}

func extractType(agg *llvm.Type, idxs []int) *llvm.Type {
	t := agg
	for _, i := range idxs {
		switch {
		case t.IsStruct() && i < len(t.Fields):
			t = t.Fields[i]
		case t.IsArray():
			t = t.Elem
		}
	}
	return t
}
