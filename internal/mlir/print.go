package mlir

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Print renders the module in the textual format understood by the parser.
func (m *Module) Print() string {
	var sb strings.Builder
	sb.WriteString("module {\n")
	p := takePrinter(&sb)
	for _, op := range m.Body().Ops {
		p.reset()
		p.printOp(op, 1)
	}
	p.release()
	sb.WriteString("}\n")
	return sb.String()
}

// printer numbers values and blocks in the order the text first names
// them, per top-level op. A value's entry is its number, or -(n+1) for a
// function argument printed as %argn.
type printer struct {
	sb         *strings.Builder
	names      map[*Value]int
	blockNames map[*Block]int
	nextID     int
	nextBlock  int
	buf        []byte // scratch for text formatted before it is written
}

// printers holds idle printers; their tables are emptied on release, so a
// pooled printer pins no module.
var printers sync.Pool

func takePrinter(sb *strings.Builder) *printer {
	p, _ := printers.Get().(*printer)
	if p == nil {
		p = &printer{names: map[*Value]int{}, blockNames: map[*Block]int{}}
	}
	p.sb = sb
	return p
}

func (p *printer) reset() {
	clear(p.names)
	clear(p.blockNames)
	p.nextID, p.nextBlock = 0, 0
}

func (p *printer) release() {
	p.reset()
	p.sb = nil
	printers.Put(p)
}

func (p *printer) str(ss ...string) {
	for _, s := range ss {
		p.sb.WriteString(s)
	}
}

func (p *printer) int(v int64) {
	p.buf = strconv.AppendInt(p.buf[:0], v, 10)
	p.sb.Write(p.buf)
}

// affineMap writes "affine_map<m>".
func (p *printer) affineMap(m *AffineMap) {
	p.buf = AppendAttr(p.buf[:0], AffineMapAttr{m})
	p.sb.Write(p.buf)
}

func (p *printer) typ(t *Type) { p.sb.WriteString(t.String()) }

// name writes v's name, numbering it on first use.
func (p *printer) name(v *Value) {
	n, ok := p.names[v]
	if !ok {
		n = p.nextID
		p.nextID++
		p.names[v] = n
	}
	p.writeName(n)
}

// argName writes a function argument's name, %arg<ArgNo> unless v is
// already named.
func (p *printer) argName(v *Value) {
	n, ok := p.names[v]
	if !ok {
		n = -int(v.ArgNo) - 1
		p.names[v] = n
	}
	p.writeName(n)
}

func (p *printer) writeName(n int) {
	if n < 0 {
		p.str("%arg")
		p.int(int64(-n - 1))
		return
	}
	p.str("%")
	p.int(int64(n))
}

func (p *printer) blockName(b *Block) {
	n, ok := p.blockNames[b]
	if !ok {
		n = p.nextBlock
		p.nextBlock++
		p.blockNames[b] = n
	}
	p.str("^bb")
	p.int(int64(n))
}

func (p *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		p.str("  ")
	}
}

func (p *printer) operandList(vals []*Value) {
	for i, v := range vals {
		if i > 0 {
			p.str(", ")
		}
		p.name(v)
	}
}

// typeList writes the types of vals, comma separated.
func (p *printer) typeList(vals []*Value) {
	for i, v := range vals {
		if i > 0 {
			p.str(", ")
		}
		p.typ(v.Type())
	}
}

// trailingAttrs writes the attributes of op other than skip, the ones its
// syntax already spells, as " {k = v, ...}".
func (p *printer) trailingAttrs(op *Op, skip ...string) {
	p.buf = appendAttrDict(p.buf[:0], op.Attrs, skip)
	p.sb.Write(p.buf)
}

// result writes "%r = " and the op's name for op's single result.
func (p *printer) result(op *Op) {
	p.name(op.Result(0))
	p.str(" = ", op.Name, " ")
}

// tail ends an op's line: " : t", its attributes other than skip, and the
// newline.
func (p *printer) tail(t *Type, op *Op, skip ...string) {
	p.str(" : ")
	p.typ(t)
	p.end(op, skip...)
}

// end ends an op's line with its attributes other than skip.
func (p *printer) end(op *Op, skip ...string) {
	p.trailingAttrs(op, skip...)
	p.str("\n")
}

// indexed writes "%mem[%i, ...]".
func (p *printer) indexed(mem *Value, idxs []*Value) {
	p.name(mem)
	p.str("[")
	p.operandList(idxs)
	p.str("]")
}

// body writes " {", region r's blocks, and the closing brace at depth.
func (p *printer) body(r *Region, depth int) {
	p.str(" {\n")
	p.printRegionBody(r, depth)
	p.indent(depth)
	p.str("}")
}

func (p *printer) printRegionBody(r *Region, depth int) {
	for _, blk := range r.Blocks {
		if len(r.Blocks) > 1 {
			p.indent(depth)
			p.blockName(blk)
			if len(blk.Args) > 0 {
				p.str("(")
				for i, a := range blk.Args {
					if i > 0 {
						p.str(", ")
					}
					p.name(a)
					p.str(": ")
					p.typ(a.Type())
				}
				p.str(")")
			}
			p.str(":\n")
		}
		for _, op := range blk.Ops {
			// Elide trivially-empty implicit terminators.
			if (op.Name == OpAffineYield || op.Name == OpSCFYield) &&
				len(op.Operands) == 0 && len(op.Attrs) == 0 {
				continue
			}
			p.printOp(op, depth+1)
		}
	}
}

func (p *printer) mapWithOperands(m *AffineMap, operands []*Value) {
	if v, ok := m.IsSingleConstant(); ok && len(operands) == 0 {
		p.int(v)
		return
	}
	p.affineMap(m)
	p.str("(")
	p.operandList(operands)
	p.str(")")
}

// accessMap writes " map affine_map<...>" unless m is the identity.
func (p *printer) accessMap(m *AffineMap) {
	if m.IsIdentity() {
		return
	}
	p.str(" map ")
	p.affineMap(m)
}

func (p *printer) printOp(op *Op, depth int) {
	p.indent(depth)
	switch op.Name {
	case OpFunc:
		name, _ := op.StringAttr(AttrSymName)
		p.str("func.func @", name, "(")
		for i, a := range FuncBody(op).Args {
			if i > 0 {
				p.str(", ")
			}
			p.argName(a)
			p.str(": ")
			p.typ(a.Type())
		}
		p.str(")")
		if res, ok := op.Attr(AttrResultTypes).(ArrayAttr); ok && len(res) > 0 {
			p.str(" -> (")
			for i, r := range res {
				if i > 0 {
					p.str(", ")
				}
				p.typ(r.(TypeAttr).Ty)
			}
			p.str(")")
		}
		if p.buf = appendAttrDict(p.buf[:0], op.Attrs, []string{AttrSymName, AttrResultTypes}); len(p.buf) > 0 {
			p.str(" attributes")
			p.sb.Write(p.buf)
		}
		p.body(op.Regions[0], depth)
		p.str("\n")

	case OpConstant:
		p.result(op)
		switch a := op.Attr(AttrValue).(type) {
		case IntAttr:
			p.int(a.Value)
		case FloatAttr:
			// The ": type" suffix is left out; the result type follows.
			p.str(formatFloat(a.Value))
		}
		p.tail(op.Result(0).Type(), op, AttrValue)

	case OpAddI, OpSubI, OpMulI, OpDivSI, OpRemSI, OpAddF, OpSubF, OpMulF, OpDivF,
		OpMinSI, OpMaxSI, OpNegF, OpMathSqrt, OpMathExp, OpSelect:
		p.result(op)
		p.operandList(op.Operands)
		p.tail(op.Result(0).Type(), op)

	case OpCmpI, OpCmpF:
		pred, _ := op.StringAttr(AttrPredicate)
		p.result(op)
		p.str(pred, ", ")
		p.operandList(op.Operands)
		p.tail(op.Operands[0].Type(), op, AttrPredicate)

	case OpIndexCast, OpSIToFP, OpFPToSI, OpExtF, OpTruncF:
		p.result(op)
		p.name(op.Operands[0])
		p.str(" : ")
		p.typ(op.Operands[0].Type())
		p.str(" to ")
		p.typ(op.Result(0).Type())
		p.end(op)

	case OpAlloc, OpAlloca:
		p.name(op.Result(0))
		p.str(" = ", op.Name, "()")
		p.tail(op.Result(0).Type(), op)

	case OpDealloc:
		p.str("memref.dealloc ")
		p.name(op.Operands[0])
		p.tail(op.Operands[0].Type(), op)

	case OpLoad:
		p.result(op)
		p.indexed(op.Operands[0], op.Operands[1:])
		p.tail(op.Operands[0].Type(), op)

	case OpStore:
		p.str("memref.store ")
		p.name(op.Operands[0])
		p.str(", ")
		p.indexed(op.Operands[1], op.Operands[2:])
		p.tail(op.Operands[1].Type(), op)

	case OpAffineLoad, OpAffineStore:
		v := AffineAccessView{op}
		if op.Name == OpAffineLoad {
			p.result(op)
		} else {
			p.str(op.Name, " ")
			p.name(v.StoredValue())
			p.str(", ")
		}
		p.indexed(v.MemRef(), v.MapOperands())
		p.accessMap(v.Map())
		p.tail(v.MemRef().Type(), op, AttrMap)

	case OpAffineApply:
		m, _ := op.MapAttr(AttrMap)
		p.result(op)
		p.affineMap(m)
		p.str("(")
		p.operandList(op.Operands)
		p.str(")")
		p.end(op, AttrMap)

	case OpAffineFor:
		f := AffineForView{op}
		p.str("affine.for ")
		p.name(f.IV())
		p.str(" = ")
		p.mapWithOperands(f.LowerMap(), f.LowerOperands())
		p.str(" to ")
		p.mapWithOperands(f.UpperMap(), f.UpperOperands())
		p.str(" step ")
		p.int(f.Step())
		p.body(op.Regions[0], depth)
		p.end(op, AttrLowerMap, AttrUpperMap, AttrStep, AttrLBCount)

	case OpSCFFor:
		p.str("scf.for ")
		p.name(op.Regions[0].Blocks[0].Args[0])
		p.str(" = ")
		p.name(op.Operands[0])
		p.str(" to ")
		p.name(op.Operands[1])
		p.str(" step ")
		p.name(op.Operands[2])
		p.body(op.Regions[0], depth)
		p.end(op)

	case OpSCFIf:
		p.str("scf.if ")
		p.name(op.Operands[0])
		p.body(op.Regions[0], depth)
		if len(op.Regions) > 1 {
			p.str(" else")
			p.body(op.Regions[1], depth)
		}
		p.end(op)

	case OpAffineYield, OpSCFYield:
		p.str(op.Name)
		if len(op.Operands) > 0 {
			p.str(" ")
			p.operandList(op.Operands)
		}
		p.end(op)

	case OpReturn:
		p.str("func.return")
		for i, v := range op.Operands {
			if i == 0 {
				p.str(" ")
			} else {
				p.str(", ")
			}
			p.name(v)
			p.str(" : ")
			p.typ(v.Type())
		}
		p.end(op)

	case OpCall:
		callee, _ := op.Attr(AttrCallee).(SymbolRefAttr)
		if len(op.Results) > 0 {
			p.operandList(op.Results)
			p.str(" = ")
		}
		p.str("func.call @", string(callee), "(")
		p.operandList(op.Operands)
		p.str(") : (")
		p.typeList(op.Operands)
		p.str(") -> (")
		p.typeList(op.Results)
		p.str(")")
		p.end(op, AttrCallee)

	case OpBr:
		p.str("cf.br ")
		p.target(op.Succs[0], op.Operands)
		p.end(op)

	case OpCondBr:
		tc, _ := op.IntAttr(AttrTrueCount)
		p.str("cf.cond_br ")
		p.name(op.Operands[0])
		p.str(", ")
		p.target(op.Succs[0], op.Operands[1:1+tc])
		p.str(", ")
		p.target(op.Succs[1], op.Operands[1+tc:])
		p.end(op, AttrTrueCount, AttrFalseCount)

	default:
		// Generic form: %r = "name"(%ops) {attrs} : (inTypes) -> (outTypes)
		if len(op.Results) > 0 {
			p.operandList(op.Results)
			p.str(" = ")
		}
		p.str(strconv.Quote(op.Name), "(")
		p.operandList(op.Operands)
		p.str(")")
		p.trailingAttrs(op)
		p.str(" : (")
		p.typeList(op.Operands)
		p.str(") -> (")
		p.typeList(op.Results)
		p.str(")\n")
		for _, r := range op.Regions {
			p.indent(depth)
			p.str("{\n")
			p.printRegionBody(r, depth)
			p.indent(depth)
			p.str("}\n")
		}
	}
}

// target writes a branch target and its arguments, "^bb1(%a, ...)".
func (p *printer) target(b *Block, args []*Value) {
	p.blockName(b)
	if len(args) > 0 {
		p.str("(")
		p.operandList(args)
		p.str(")")
	}
}

// OpNamesUsed returns the sorted set of op names appearing in the module,
// useful for diagnostics and tests.
func (m *Module) OpNamesUsed() []string {
	set := map[string]bool{}
	Walk(m.Op, func(o *Op) bool {
		set[o.Name] = true
		return true
	})
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
