package parser

import (
	"strconv"

	"repro/internal/mlir"
)

// parseOp parses a single operation statement into blk.
func (p *parser) parseOp(blk *mlir.Block) error {
	// Optional result list: %a, %b = ...
	var resultNames []string
	if p.cur().kind == tokValueID {
		save := p.pos
		for p.cur().kind == tokValueID {
			resultNames = append(resultNames, p.next().text)
			if p.isPunct(",") {
				p.next()
				continue
			}
			break
		}
		if !p.isPunct("=") {
			// Not a result list (shouldn't happen in well-formed input).
			p.pos = save
			resultNames = nil
			return p.errf("expected '=' after result list")
		}
		p.next()
	}

	register := func(op *mlir.Op) error {
		if len(resultNames) != len(op.Results) {
			return p.errf("op %s has %d results, %d names given", op.Name, len(op.Results), len(resultNames))
		}
		for i, n := range resultNames {
			p.values[n] = op.Result(i)
		}
		return nil
	}

	t := p.cur()
	if t.kind == tokString {
		return p.parseGenericOp(blk, resultNames)
	}
	if t.kind != tokIdent {
		return p.errf("expected operation name")
	}
	name := t.text
	p.next()

	switch name {
	case mlir.OpConstant:
		vt := p.cur()
		var op *mlir.Op
		switch vt.kind {
		case tokInt:
			v, _ := strconv.ParseInt(vt.text, 10, 64)
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			op = mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{ty})
			op.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: v, Ty: ty})
		case tokFloat:
			v, _ := strconv.ParseFloat(vt.text, 64)
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			op = mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{ty})
			op.SetAttr(mlir.AttrValue, mlir.FloatAttr{Value: v, Ty: ty})
		default:
			return p.errf("expected constant literal")
		}
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpAddI, mlir.OpSubI, mlir.OpMulI, mlir.OpDivSI, mlir.OpRemSI,
		mlir.OpAddF, mlir.OpSubF, mlir.OpMulF, mlir.OpDivF, mlir.OpMinSI, mlir.OpMaxSI:
		lhs, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		rhs, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, []*mlir.Value{lhs, rhs}, []*mlir.Type{ty})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpNegF, mlir.OpMathSqrt, mlir.OpMathExp:
		v, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, []*mlir.Value{v}, []*mlir.Type{ty})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpCmpI, mlir.OpCmpF:
		pred := p.cur()
		if pred.kind != tokIdent {
			return p.errf("expected comparison predicate")
		}
		p.next()
		if err := p.expectPunct(","); err != nil {
			return err
		}
		lhs, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		rhs, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if _, err := p.parseType(); err != nil {
			return err
		}
		op := mlir.NewOp(name, []*mlir.Value{lhs, rhs}, []*mlir.Type{mlir.I1()})
		op.SetAttr(mlir.AttrPredicate, mlir.StringAttr(pred.text))
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpSelect:
		vals, err := p.parseValueList()
		if err != nil {
			return err
		}
		if len(vals) != 3 {
			return p.errf("select takes 3 operands")
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, vals, []*mlir.Type{ty})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpIndexCast, mlir.OpSIToFP, mlir.OpFPToSI, mlir.OpExtF, mlir.OpTruncF:
		v, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if _, err := p.parseType(); err != nil {
			return err
		}
		if err := p.expectIdent("to"); err != nil {
			return err
		}
		to, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, []*mlir.Value{v}, []*mlir.Type{to})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpAlloc, mlir.OpAlloca:
		if err := p.expectPunct("("); err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, nil, []*mlir.Type{ty})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpDealloc:
		v, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if _, err := p.parseType(); err != nil {
			return err
		}
		op := mlir.NewOp(name, []*mlir.Value{v}, nil)
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpLoad:
		mem, err := p.parseValueRef()
		if err != nil {
			return err
		}
		idxs, err := p.parseIndexList()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		mt, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, append([]*mlir.Value{mem}, idxs...), []*mlir.Type{mt.Elem})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpStore:
		val, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		mem, err := p.parseValueRef()
		if err != nil {
			return err
		}
		idxs, err := p.parseIndexList()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if _, err := p.parseType(); err != nil {
			return err
		}
		op := mlir.NewOp(name, append([]*mlir.Value{val, mem}, idxs...), nil)
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpAffineLoad:
		mem, err := p.parseValueRef()
		if err != nil {
			return err
		}
		idxs, err := p.parseIndexList()
		if err != nil {
			return err
		}
		amap := mlir.IdentityMap(len(idxs))
		if p.isIdent("map") {
			p.next()
			amap, err = p.parseAffineMapLiteral()
			if err != nil {
				return err
			}
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		mt, err := p.parseType()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, append([]*mlir.Value{mem}, idxs...), []*mlir.Type{mt.Elem})
		op.SetAttr(mlir.AttrMap, mlir.AffineMapAttr{Map: amap})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpAffineStore:
		val, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		mem, err := p.parseValueRef()
		if err != nil {
			return err
		}
		idxs, err := p.parseIndexList()
		if err != nil {
			return err
		}
		amap := mlir.IdentityMap(len(idxs))
		if p.isIdent("map") {
			p.next()
			amap, err = p.parseAffineMapLiteral()
			if err != nil {
				return err
			}
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if _, err := p.parseType(); err != nil {
			return err
		}
		op := mlir.NewOp(name, append([]*mlir.Value{val, mem}, idxs...), nil)
		op.SetAttr(mlir.AttrMap, mlir.AffineMapAttr{Map: amap})
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpAffineApply:
		amap, err := p.parseAffineMapLiteral()
		if err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		operands, err := p.parseValueList()
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		op := mlir.NewOp(name, operands, []*mlir.Type{mlir.Index()})
		op.SetAttr(mlir.AttrMap, mlir.AffineMapAttr{Map: amap})
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpAffineFor:
		return p.parseAffineFor(blk)

	case mlir.OpSCFFor:
		iv := p.cur()
		if iv.kind != tokValueID {
			return p.errf("expected induction variable")
		}
		p.next()
		if err := p.expectPunct("="); err != nil {
			return err
		}
		lo, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectIdent("to"); err != nil {
			return err
		}
		hi, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectIdent("step"); err != nil {
			return err
		}
		st, err := p.parseValueRef()
		if err != nil {
			return err
		}
		op := mlir.NewOp(mlir.OpSCFFor, []*mlir.Value{lo, hi, st}, nil)
		r := op.AddRegion()
		body := mlir.NewBlock(mlir.Index())
		r.AddBlock(body)
		p.values[iv.text] = body.Args[0]
		blk.Append(op)
		if err := p.expectPunct("{"); err != nil {
			return err
		}
		if err := p.parseRegionInto(r, true); err != nil {
			return err
		}
		return p.maybeAttrDict(op)

	case mlir.OpSCFIf:
		cond, err := p.parseValueRef()
		if err != nil {
			return err
		}
		op := mlir.NewOp(mlir.OpSCFIf, []*mlir.Value{cond}, nil)
		tr := op.AddRegion()
		tr.AddBlock(mlir.NewBlock())
		blk.Append(op)
		if err := p.expectPunct("{"); err != nil {
			return err
		}
		if err := p.parseRegionInto(tr, true); err != nil {
			return err
		}
		if p.isIdent("else") {
			p.next()
			er := op.AddRegion()
			er.AddBlock(mlir.NewBlock())
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			if err := p.parseRegionInto(er, true); err != nil {
				return err
			}
		}
		return p.maybeAttrDict(op)

	case mlir.OpAffineYield, mlir.OpSCFYield:
		operands, err := p.parseValueList()
		if err != nil {
			return err
		}
		op := mlir.NewOp(name, operands, nil)
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpReturn:
		var operands []*mlir.Value
		for p.cur().kind == tokValueID {
			v, err := p.parseValueRef()
			if err != nil {
				return err
			}
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			if _, err := p.parseType(); err != nil {
				return err
			}
			operands = append(operands, v)
			if p.isPunct(",") {
				p.next()
			}
		}
		op := mlir.NewOp(name, operands, nil)
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpCall:
		sym := p.cur()
		if sym.kind != tokSymbol {
			return p.errf("expected callee symbol")
		}
		p.next()
		if err := p.expectPunct("("); err != nil {
			return err
		}
		args, err := p.parseValueList()
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.isPunct(")") {
			if _, err := p.parseType(); err != nil {
				return err
			}
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		if err := p.expectPunct("->"); err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		var resTypes []*mlir.Type
		for !p.isPunct(")") {
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			resTypes = append(resTypes, ty)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		op := mlir.NewOp(name, args, resTypes)
		op.SetAttr(mlir.AttrCallee, mlir.SymbolRefAttr(sym.text))
		blk.Append(op)
		if err := p.maybeAttrDict(op); err != nil {
			return err
		}
		return register(op)

	case mlir.OpBr:
		dest := p.cur()
		if dest.kind != tokBlockID {
			return p.errf("expected branch target")
		}
		p.next()
		var args []*mlir.Value
		if p.isPunct("(") {
			p.next()
			var err error
			args, err = p.parseValueList()
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
		}
		op := mlir.NewOp(name, args, nil)
		op.Succs = []*mlir.Block{p.getOrCreateBlock(dest.text)}
		blk.Append(op)
		return p.maybeAttrDict(op)

	case mlir.OpCondBr:
		cond, err := p.parseValueRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		parseTarget := func() (*mlir.Block, []*mlir.Value, error) {
			dest := p.cur()
			if dest.kind != tokBlockID {
				return nil, nil, p.errf("expected branch target")
			}
			p.next()
			var args []*mlir.Value
			if p.isPunct("(") {
				p.next()
				args, err = p.parseValueList()
				if err != nil {
					return nil, nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, nil, err
				}
			}
			return p.getOrCreateBlock(dest.text), args, nil
		}
		tBlk, tArgs, err := parseTarget()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		fBlk, fArgs, err := parseTarget()
		if err != nil {
			return err
		}
		operands := append([]*mlir.Value{cond}, tArgs...)
		operands = append(operands, fArgs...)
		op := mlir.NewOp(name, operands, nil)
		op.Succs = []*mlir.Block{tBlk, fBlk}
		op.SetAttr(mlir.AttrTrueCount, mlir.I(int64(len(tArgs))))
		op.SetAttr(mlir.AttrFalseCount, mlir.I(int64(len(fArgs))))
		blk.Append(op)
		return p.maybeAttrDict(op)
	}

	return p.errf("unknown operation %q", name)
}

// parseAffineFor parses: %iv = bound to bound step N { body } [attrs]
// where bound := INT | affine_map<...>(%operands).
func (p *parser) parseAffineFor(blk *mlir.Block) error {
	iv := p.cur()
	if iv.kind != tokValueID {
		return p.errf("expected induction variable")
	}
	p.next()
	if err := p.expectPunct("="); err != nil {
		return err
	}

	parseBound := func() (*mlir.AffineMap, []*mlir.Value, error) {
		t := p.cur()
		if t.kind == tokInt {
			p.next()
			v, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, nil, p.errf("bad bound")
			}
			return mlir.ConstantMap(v), nil, nil
		}
		m, err := p.parseAffineMapLiteral()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, nil, err
		}
		operands, err := p.parseValueList()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, nil, err
		}
		return m, operands, nil
	}

	lower, lowerOps, err := parseBound()
	if err != nil {
		return err
	}
	if err := p.expectIdent("to"); err != nil {
		return err
	}
	upper, upperOps, err := parseBound()
	if err != nil {
		return err
	}
	step := int64(1)
	if p.isIdent("step") {
		p.next()
		st := p.cur()
		if st.kind != tokInt {
			return p.errf("expected step constant")
		}
		p.next()
		step, err = strconv.ParseInt(st.text, 10, 64)
		if err != nil {
			return p.errf("bad step")
		}
	}

	operands := append(append([]*mlir.Value{}, lowerOps...), upperOps...)
	op := mlir.NewOp(mlir.OpAffineFor, operands, nil)
	op.SetAttr(mlir.AttrLowerMap, mlir.AffineMapAttr{Map: lower})
	op.SetAttr(mlir.AttrUpperMap, mlir.AffineMapAttr{Map: upper})
	op.SetAttr(mlir.AttrStep, mlir.I(step))
	op.SetAttr(mlir.AttrLBCount, mlir.I(int64(len(lowerOps))))
	r := op.AddRegion()
	body := mlir.NewBlock(mlir.Index())
	r.AddBlock(body)
	p.values[iv.text] = body.Args[0]
	blk.Append(op)

	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.parseRegionInto(r, true); err != nil {
		return err
	}
	return p.maybeAttrDict(op)
}

// parseGenericOp parses the fallback form:
//
//	"op.name"(%ops) {attrs} : (inTypes) -> (outTypes) [{region}...]
func (p *parser) parseGenericOp(blk *mlir.Block, resultNames []string) error {
	name := p.next().text
	if err := p.expectPunct("("); err != nil {
		return err
	}
	operands, err := p.parseValueList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	// The attributes precede the result types, so they are parsed into a
	// holder and handed to the op once it exists.
	var holder mlir.Op
	if err := p.maybeAttrDict(&holder); err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for !p.isPunct(")") {
		if _, err := p.parseType(); err != nil {
			return err
		}
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var resTypes []*mlir.Type
	for !p.isPunct(")") {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		resTypes = append(resTypes, ty)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	op := mlir.NewOp(name, operands, resTypes)
	op.Attrs = holder.Attrs
	blk.Append(op)
	for p.isPunct("{") {
		p.next()
		r := op.AddRegion()
		r.AddBlock(mlir.NewBlock())
		if err := p.parseRegionInto(r, false); err != nil {
			return err
		}
	}
	if len(resultNames) != len(op.Results) {
		return p.errf("generic op result count mismatch")
	}
	for i, n := range resultNames {
		p.values[n] = op.Result(i)
	}
	return nil
}
