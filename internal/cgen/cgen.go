// Package cgen emits HLS C++ from affine-level MLIR, reproducing the
// baseline path of MLIR HLS tools (ScaleHLS-style emit-hlscpp): loops become
// `for (int ...)`, accesses become multi-dimensional subscripts, and HLS
// directives become #pragma HLS lines. This printing step is where the
// baseline flow loses IR detail: index types narrow to C int, affine
// floordiv/mod fall back to C division, and SSA structure is re-derived by
// the downstream C frontend.
package cgen

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/mlir"
	"repro/internal/mlir/passes"
)

// Emit renders the module as HLS C++ source.
func Emit(m *mlir.Module) (string, error) {
	e := takeEmitter()
	defer e.release()
	e.w("// Generated by emit-hlscpp\n\n")
	for _, f := range m.Funcs() {
		clear(e.names)
		e.nextID, e.indent = 0, 0
		if err := e.emitFunc(f); err != nil {
			return "", err
		}
		e.w("\n")
	}
	return string(e.buf), nil
}

// emitter appends a module's C to buf a piece at a time. A value is named
// v<n> by the order it is first seen in its function.
type emitter struct {
	buf    []byte
	names  map[*mlir.Value]int32
	ids    []int32 // the operand names of the expression being rendered
	nextID int32
	indent int
}

// emitters holds idle emitters. Emit takes one per module and returns it
// with its name table emptied, so the pool pins no module.
var emitters sync.Pool

func takeEmitter() *emitter {
	e, _ := emitters.Get().(*emitter)
	if e == nil {
		e = &emitter{names: map[*mlir.Value]int32{}}
	}
	e.buf = e.buf[:0]
	return e
}

func (e *emitter) release() {
	clear(e.names)
	emitters.Put(e)
}

// id returns v's name number, numbering it on first sight.
func (e *emitter) id(v *mlir.Value) int32 {
	if n, ok := e.names[v]; ok {
		return n
	}
	n := e.nextID
	e.nextID++
	e.names[v] = n
	return n
}

// line starts a line at the current indentation.
func (e *emitter) line() *emitter {
	for i := 0; i < e.indent; i++ {
		e.buf = append(e.buf, "  "...)
	}
	return e
}

// w appends s.
func (e *emitter) w(s string) *emitter {
	e.buf = append(e.buf, s...)
	return e
}

// n appends x in decimal.
func (e *emitter) n(x int64) *emitter {
	e.buf = strconv.AppendInt(e.buf, x, 10)
	return e
}

// v appends v's name.
func (e *emitter) v(v *mlir.Value) *emitter { return e.vn(e.id(v)) }

// vn appends the name numbered id.
func (e *emitter) vn(id int32) *emitter {
	e.buf = strconv.AppendInt(append(e.buf, 'v'), int64(id), 10)
	return e
}

// end closes a line.
func (e *emitter) end() { e.buf = append(e.buf, '\n') }

// dims appends one [n] per dimension.
func (e *emitter) dims(shape []int64) *emitter {
	for _, d := range shape {
		e.w("[").n(d).w("]")
	}
	return e
}

func ctype(t *mlir.Type) (string, error) {
	switch {
	case t.IsFloat() && t.Width == 32:
		return "float", nil
	case t.IsFloat():
		return "double", nil
	case t.IsIndex(), t.IsInt():
		return "int", nil // C frontends see loop counters as int
	}
	return "", fmt.Errorf("cgen: no C type for %s", t)
}

// elemCType returns the C type of a memref element. An array keeps its
// element width through the C frontend, which knows int, float and double,
// so an element without a C type of its own width is refused rather than
// read and written at another width.
func elemCType(t *mlir.Type) (string, error) {
	switch {
	case t.IsInt() && t.Width == 32:
		return "int", nil
	case t.IsFloat() && t.Width == 32:
		return "float", nil
	case t.IsFloat() && t.Width == 64:
		return "double", nil
	}
	return "", fmt.Errorf("cgen: memref element type %s has no C type of the same width", t)
}

func (e *emitter) emitFunc(f *mlir.Op) error {
	name := mlir.FuncName(f)
	body := mlir.FuncBody(f)
	if len(f.Regions[0].Blocks) != 1 {
		return fmt.Errorf("cgen: %s must be structured (affine level)", name)
	}
	e.line().w("void ").w(name).w("(")
	for i, a := range body.Args {
		if i > 0 {
			e.w(", ")
		}
		n := e.id(a)
		if a.Type().IsMemRef() {
			et, err := elemCType(a.Type().Elem)
			if err != nil {
				return err
			}
			e.w(et).w(" ").vn(n).dims(a.Type().Shape)
		} else {
			st, err := ctype(a.Type())
			if err != nil {
				return err
			}
			e.w(st).w(" ").vn(n)
		}
	}
	e.w(") {").end()
	e.indent++
	// Function-level pragmas.
	if f.HasAttr(mlir.AttrDataflow) {
		e.line().w("#pragma HLS dataflow").end()
	}
	for i, a := range body.Args {
		if !a.Type().IsMemRef() {
			continue
		}
		e.line().w("#pragma HLS interface ap_memory port=").v(a).end()
		if attr := f.Attr(passes.PartitionArgAttrKey(i)); attr != nil {
			if spec, ok := passes.ParsePartitionAttr(attr); ok {
				e.line().w("#pragma HLS array_partition variable=").v(a)
				if spec.Kind == "complete" {
					e.w(" complete")
				} else {
					e.w(" ").w(spec.Kind).w(" factor=").n(int64(spec.Factor))
				}
				e.w(" dim=").n(int64(spec.Dim + 1)).end()
			}
		}
	}
	if err := e.emitBlock(body); err != nil {
		return err
	}
	e.indent--
	e.line().w("}").end()
	return nil
}

func (e *emitter) emitBlock(b *mlir.Block) error {
	for _, op := range b.Ops {
		if err := e.emitOp(op); err != nil {
			return err
		}
	}
	return nil
}

// operandIDs names ops in order and returns their name numbers, which
// stay valid until the next call.
func (e *emitter) operandIDs(ops []*mlir.Value) []int32 {
	e.ids = e.ids[:0]
	for _, o := range ops {
		e.ids = append(e.ids, e.id(o))
	}
	return e.ids
}

// affine appends an affine expression with its dims and symbols named by
// the numbers in dims and syms.
func (e *emitter) affine(ex *mlir.AffineExpr, dims, syms []int32) {
	switch ex.Kind {
	case mlir.AffineDim:
		e.vn(dims[ex.Pos])
	case mlir.AffineSym:
		e.vn(syms[ex.Pos])
	case mlir.AffineConst:
		e.n(ex.Val)
	case mlir.AffineAdd:
		e.w("(")
		e.affine(ex.LHS, dims, syms)
		if ex.RHS.IsConst() && ex.RHS.Val < 0 {
			e.w(" - ").n(-ex.RHS.Val)
		} else {
			e.w(" + ")
			e.affine(ex.RHS, dims, syms)
		}
		e.w(")")
	case mlir.AffineMul, mlir.AffineMod, mlir.AffineFloorDiv:
		e.w("(")
		e.affine(ex.LHS, dims, syms)
		switch ex.Kind {
		case mlir.AffineMul:
			e.w(" * ")
		case mlir.AffineMod:
			e.w(" % ")
		default:
			// C integer division: correct for the non-negative indices
			// HLS kernels use.
			e.w(" / ")
		}
		e.affine(ex.RHS, dims, syms)
		e.w(")")
	case mlir.AffineCeilDiv:
		// C integer division with the numerator biased up.
		e.w("((")
		e.affine(ex.LHS, dims, syms)
		e.w(" + ").n(ex.RHS.Val - 1).w(") / ").n(ex.RHS.Val).w(")")
	default:
		e.w("<?>")
	}
}

// bound appends the first result of an affine map over operands.
func (e *emitter) bound(m *mlir.AffineMap, operands []*mlir.Value) {
	ids := e.operandIDs(operands)
	e.affine(m.Exprs[0], ids[:m.NumDims], ids[m.NumDims:])
}

// access appends an access's memref and one C subscript per map result.
func (e *emitter) access(v mlir.AffineAccessView) *emitter {
	e.v(v.MemRef())
	m := v.Map()
	ids := e.operandIDs(v.MapOperands())
	for _, ex := range m.Exprs {
		e.w("[")
		e.affine(ex, ids[:m.NumDims], ids[m.NumDims:])
		e.w("]")
	}
	return e
}

func cmpOpC(pred string) string {
	switch pred {
	case mlir.PredEQ, mlir.PredOEQ:
		return "=="
	case mlir.PredNE, mlir.PredONE:
		return "!="
	case mlir.PredSLT, mlir.PredOLT:
		return "<"
	case mlir.PredSLE, mlir.PredOLE:
		return "<="
	case mlir.PredSGT, mlir.PredOGT:
		return ">"
	case mlir.PredSGE, mlir.PredOGE:
		return ">="
	}
	return "/*?*/"
}

// binarySym returns the C operator of a binary arithmetic op, or "".
func binarySym(name string) string {
	switch name {
	case mlir.OpAddI, mlir.OpAddF:
		return "+"
	case mlir.OpSubI, mlir.OpSubF:
		return "-"
	case mlir.OpMulI, mlir.OpMulF:
		return "*"
	case mlir.OpDivSI, mlir.OpDivF:
		return "/"
	case mlir.OpRemSI:
		return "%"
	}
	return ""
}

// def starts the declaration of op's result: its C type and name.
func (e *emitter) def(ct string, op *mlir.Op) *emitter {
	return e.line().w(ct).w(" ").v(op.Result(0)).w(" = ")
}

func (e *emitter) emitOp(op *mlir.Op) error {
	if sym := binarySym(op.Name); sym != "" {
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		e.def(ct, op).v(op.Operands[0]).w(" ").w(sym).w(" ").v(op.Operands[1]).w(";").end()
		return nil
	}
	switch op.Name {
	case mlir.OpConstant:
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		switch a := op.Attr(mlir.AttrValue).(type) {
		case mlir.IntAttr:
			e.def(ct, op).n(a.Value).w(";").end()
		case mlir.FloatAttr:
			e.def(ct, op)
			e.buf = strconv.AppendFloat(e.buf, a.Value, 'g', -1, 64)
			e.w(";").end()
		}
		return nil

	case mlir.OpNegF:
		ct, _ := ctype(op.Result(0).Type())
		e.def(ct, op).w("-").v(op.Operands[0]).w(";").end()
		return nil

	case mlir.OpMinSI, mlir.OpMaxSI:
		cmp := " < "
		if op.Name == mlir.OpMaxSI {
			cmp = " > "
		}
		ct, _ := ctype(op.Result(0).Type())
		a, b := op.Operands[0], op.Operands[1]
		e.def(ct, op).v(a).w(cmp).v(b).w(" ? ").v(a).w(" : ").v(b).w(";").end()
		return nil

	case mlir.OpCmpI, mlir.OpCmpF:
		pred, _ := op.StringAttr(mlir.AttrPredicate)
		e.def("int", op).v(op.Operands[0]).w(" ").w(cmpOpC(pred)).w(" ").v(op.Operands[1]).w(";").end()
		return nil

	case mlir.OpSelect:
		ct, _ := ctype(op.Result(0).Type())
		e.def(ct, op).v(op.Operands[0]).w(" ? ").v(op.Operands[1]).w(" : ").v(op.Operands[2]).w(";").end()
		return nil

	case mlir.OpIndexCast:
		ct, _ := ctype(op.Result(0).Type())
		e.def(ct, op).v(op.Operands[0]).w(";").end()
		return nil

	case mlir.OpSIToFP, mlir.OpExtF, mlir.OpTruncF, mlir.OpFPToSI:
		ct, _ := ctype(op.Result(0).Type())
		e.def(ct, op).w("(").w(ct).w(")").v(op.Operands[0]).w(";").end()
		return nil

	case mlir.OpMathSqrt, mlir.OpMathExp:
		fn := "sqrt"
		if op.Name == mlir.OpMathExp {
			fn = "exp"
		}
		ct, _ := ctype(op.Result(0).Type())
		e.def(ct, op).w(fn)
		if op.Result(0).Type().Width == 32 {
			e.w("f")
		}
		e.w("(").v(op.Operands[0]).w(");").end()
		return nil

	case mlir.OpAffineLoad:
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		e.def(ct, op).access(mlir.AffineAccessView{Op: op}).w(";").end()
		return nil

	case mlir.OpAffineStore:
		v := mlir.AffineAccessView{Op: op}
		e.line().access(v).w(" = ").v(v.StoredValue()).w(";").end()
		return nil

	case mlir.OpAffineApply:
		m, _ := op.MapAttr(mlir.AttrMap)
		ids := e.operandIDs(op.Operands)
		e.def("int", op)
		e.affine(m.Exprs[0], ids[:m.NumDims], ids[m.NumDims:])
		e.w(";").end()
		return nil

	case mlir.OpAlloc, mlir.OpAlloca:
		mt := op.Result(0).Type()
		et, err := elemCType(mt.Elem)
		if err != nil {
			return err
		}
		e.line().w(et).w(" ").v(op.Result(0)).dims(mt.Shape).w(";").end()
		return nil

	case mlir.OpDealloc:
		return nil

	case mlir.OpAffineFor:
		return e.emitFor(op)

	case mlir.OpSCFIf:
		e.line().w("if (").v(op.Operands[0]).w(") {").end()
		e.indent++
		if err := e.emitBlock(op.Regions[0].Blocks[0]); err != nil {
			return err
		}
		e.indent--
		if len(op.Regions) > 1 {
			e.line().w("} else {").end()
			e.indent++
			if err := e.emitBlock(op.Regions[1].Blocks[0]); err != nil {
				return err
			}
			e.indent--
		}
		e.line().w("}").end()
		return nil

	case mlir.OpAffineYield, mlir.OpSCFYield, mlir.OpReturn:
		return nil

	case mlir.OpCall:
		callee, _ := op.Attr(mlir.AttrCallee).(mlir.SymbolRefAttr)
		e.operandIDs(op.Operands)
		e.line()
		if len(op.Results) > 0 {
			ct, _ := ctype(op.Result(0).Type())
			e.w(ct).w(" ").v(op.Result(0)).w(" = ")
		}
		e.w(string(callee)).w("(")
		for i, id := range e.ids {
			if i > 0 {
				e.w(", ")
			}
			e.vn(id)
		}
		e.w(");").end()
		return nil
	}
	return fmt.Errorf("cgen: cannot emit op %s", op.Name)
}

func (e *emitter) emitFor(op *mlir.Op) error {
	f := mlir.AffineForView{Op: op}
	iv := e.id(f.IV())
	e.line().w("for (int ").vn(iv).w(" = ")
	e.bound(f.LowerMap(), f.LowerOperands())
	e.w("; ").vn(iv).w(" < ")
	e.bound(f.UpperMap(), f.UpperOperands())
	e.w("; ").vn(iv).w(" += ").n(f.Step()).w(") {").end()
	e.indent++
	if op.HasAttr(mlir.AttrPipeline) {
		e.line().w("#pragma HLS pipeline")
		if ii, ok := op.IntAttr(mlir.AttrII); ok && ii > 0 {
			e.w(" II=").n(ii)
		}
		e.end()
	}
	if u, ok := op.IntAttr(mlir.AttrUnroll); ok && u > 1 {
		e.line().w("#pragma HLS unroll factor=").n(u).end()
	}
	if op.HasAttr(mlir.AttrFlatten) {
		e.line().w("#pragma HLS loop_flatten").end()
	}
	if err := e.emitBlock(f.Body()); err != nil {
		return err
	}
	e.indent--
	e.line().w("}").end()
	return nil
}
