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
	"strings"
	"sync"

	"repro/internal/mlir"
	"repro/internal/mlir/passes"
)

// Emit renders the module as HLS C++ source.
func Emit(m *mlir.Module) (string, error) {
	var sb strings.Builder
	sb.WriteString("// Generated by emit-hlscpp\n\n")
	for _, f := range m.Funcs() {
		e := takeEmitter(&sb)
		err := e.emitFunc(f)
		e.release()
		if err != nil {
			return "", err
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

type emitter struct {
	sb     *strings.Builder
	names  map[*mlir.Value]string
	nextID int
	indent int
}

// emitters holds idle emitters. Emit takes one per function and returns
// it with its name table emptied, so the pool pins no module.
var emitters sync.Pool

func takeEmitter(sb *strings.Builder) *emitter {
	e, _ := emitters.Get().(*emitter)
	if e == nil {
		e = &emitter{names: map[*mlir.Value]string{}}
	}
	e.sb, e.nextID, e.indent = sb, 0, 0
	return e
}

func (e *emitter) release() {
	clear(e.names)
	e.sb = nil
	emitters.Put(e)
}

func (e *emitter) name(v *mlir.Value) string {
	if n, ok := e.names[v]; ok {
		return n
	}
	n := "v" + strconv.Itoa(e.nextID)
	e.nextID++
	e.names[v] = n
	return n
}

func (e *emitter) line(format string, args ...any) {
	for i := 0; i < e.indent; i++ {
		e.sb.WriteString("  ")
	}
	fmt.Fprintf(e.sb, format, args...)
	e.sb.WriteString("\n")
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
	var params []string
	for _, a := range body.Args {
		n := e.name(a)
		if a.Type().IsMemRef() {
			et, err := elemCType(a.Type().Elem)
			if err != nil {
				return err
			}
			dims := ""
			for _, d := range a.Type().Shape {
				dims += fmt.Sprintf("[%d]", d)
			}
			params = append(params, fmt.Sprintf("%s %s%s", et, n, dims))
		} else {
			st, err := ctype(a.Type())
			if err != nil {
				return err
			}
			params = append(params, fmt.Sprintf("%s %s", st, n))
		}
	}
	e.line("void %s(%s) {", name, strings.Join(params, ", "))
	e.indent++
	// Function-level pragmas.
	if f.HasAttr(mlir.AttrDataflow) {
		e.line("#pragma HLS dataflow")
	}
	for i, a := range body.Args {
		if !a.Type().IsMemRef() {
			continue
		}
		e.line("#pragma HLS interface ap_memory port=%s", e.name(a))
		if attr := f.Attr(passes.PartitionArgAttrKey(i)); attr != nil {
			if spec, ok := passes.ParsePartitionAttr(attr); ok {
				if spec.Kind == "complete" {
					e.line("#pragma HLS array_partition variable=%s complete dim=%d",
						e.name(a), spec.Dim+1)
				} else {
					e.line("#pragma HLS array_partition variable=%s %s factor=%d dim=%d",
						e.name(a), spec.Kind, spec.Factor, spec.Dim+1)
				}
			}
		}
	}
	if err := e.emitBlock(body); err != nil {
		return err
	}
	e.indent--
	e.line("}")
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

// affineExprToC renders an affine expression with operand names substituted.
func affineExprToC(ex *mlir.AffineExpr, dims, syms []string) string {
	switch ex.Kind {
	case mlir.AffineDim:
		return dims[ex.Pos]
	case mlir.AffineSym:
		return syms[ex.Pos]
	case mlir.AffineConst:
		return strconv.FormatInt(ex.Val, 10)
	case mlir.AffineAdd:
		if ex.RHS.IsConst() && ex.RHS.Val < 0 {
			return fmt.Sprintf("(%s - %d)", affineExprToC(ex.LHS, dims, syms), -ex.RHS.Val)
		}
		return fmt.Sprintf("(%s + %s)", affineExprToC(ex.LHS, dims, syms), affineExprToC(ex.RHS, dims, syms))
	case mlir.AffineMul:
		return fmt.Sprintf("(%s * %s)", affineExprToC(ex.LHS, dims, syms), affineExprToC(ex.RHS, dims, syms))
	case mlir.AffineMod:
		return fmt.Sprintf("(%s %% %s)", affineExprToC(ex.LHS, dims, syms), affineExprToC(ex.RHS, dims, syms))
	case mlir.AffineFloorDiv, mlir.AffineCeilDiv:
		// C integer division: correct for the non-negative indices HLS
		// kernels use; ceildiv additionally biases the numerator.
		if ex.Kind == mlir.AffineCeilDiv {
			return fmt.Sprintf("((%s + %d) / %d)", affineExprToC(ex.LHS, dims, syms),
				ex.RHS.Val-1, ex.RHS.Val)
		}
		return fmt.Sprintf("(%s / %s)", affineExprToC(ex.LHS, dims, syms), affineExprToC(ex.RHS, dims, syms))
	}
	return "<?>"
}

// accessIndices renders one C subscript per map result.
func (e *emitter) accessIndices(v mlir.AffineAccessView) string {
	m := v.Map()
	ops := v.MapOperands()
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = e.name(o)
	}
	dims := names[:m.NumDims]
	syms := names[m.NumDims:]
	var sb strings.Builder
	for _, ex := range m.Exprs {
		sb.WriteString("[" + affineExprToC(ex, dims, syms) + "]")
	}
	return sb.String()
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

func (e *emitter) emitOp(op *mlir.Op) error {
	switch op.Name {
	case mlir.OpConstant:
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		switch a := op.Attr(mlir.AttrValue).(type) {
		case mlir.IntAttr:
			e.line("%s %s = %d;", ct, e.name(op.Result(0)), a.Value)
		case mlir.FloatAttr:
			e.line("%s %s = %s;", ct, e.name(op.Result(0)),
				strconv.FormatFloat(a.Value, 'g', -1, 64))
		}
		return nil

	case mlir.OpAddI, mlir.OpAddF, mlir.OpSubI, mlir.OpSubF, mlir.OpMulI,
		mlir.OpMulF, mlir.OpDivSI, mlir.OpDivF, mlir.OpRemSI:
		var sym string
		switch op.Name {
		case mlir.OpAddI, mlir.OpAddF:
			sym = "+"
		case mlir.OpSubI, mlir.OpSubF:
			sym = "-"
		case mlir.OpMulI, mlir.OpMulF:
			sym = "*"
		case mlir.OpDivSI, mlir.OpDivF:
			sym = "/"
		case mlir.OpRemSI:
			sym = "%"
		}
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		e.line("%s %s = %s %s %s;", ct, e.name(op.Result(0)),
			e.name(op.Operands[0]), sym, e.name(op.Operands[1]))
		return nil

	case mlir.OpNegF:
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = -%s;", ct, e.name(op.Result(0)), e.name(op.Operands[0]))
		return nil

	case mlir.OpMinSI, mlir.OpMaxSI:
		cmp := "<"
		if op.Name == mlir.OpMaxSI {
			cmp = ">"
		}
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = %s %s %s ? %s : %s;", ct, e.name(op.Result(0)),
			e.name(op.Operands[0]), cmp, e.name(op.Operands[1]),
			e.name(op.Operands[0]), e.name(op.Operands[1]))
		return nil

	case mlir.OpCmpI, mlir.OpCmpF:
		pred, _ := op.StringAttr(mlir.AttrPredicate)
		e.line("int %s = %s %s %s;", e.name(op.Result(0)),
			e.name(op.Operands[0]), cmpOpC(pred), e.name(op.Operands[1]))
		return nil

	case mlir.OpSelect:
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = %s ? %s : %s;", ct, e.name(op.Result(0)),
			e.name(op.Operands[0]), e.name(op.Operands[1]), e.name(op.Operands[2]))
		return nil

	case mlir.OpIndexCast:
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = %s;", ct, e.name(op.Result(0)), e.name(op.Operands[0]))
		return nil

	case mlir.OpSIToFP, mlir.OpExtF, mlir.OpTruncF, mlir.OpFPToSI:
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = (%s)%s;", ct, e.name(op.Result(0)), ct, e.name(op.Operands[0]))
		return nil

	case mlir.OpMathSqrt, mlir.OpMathExp:
		fn := "sqrt"
		if op.Name == mlir.OpMathExp {
			fn = "exp"
		}
		if op.Result(0).Type().Width == 32 {
			fn += "f"
		}
		ct, _ := ctype(op.Result(0).Type())
		e.line("%s %s = %s(%s);", ct, e.name(op.Result(0)), fn, e.name(op.Operands[0]))
		return nil

	case mlir.OpAffineLoad:
		v := mlir.AffineAccessView{Op: op}
		ct, err := ctype(op.Result(0).Type())
		if err != nil {
			return err
		}
		e.line("%s %s = %s%s;", ct, e.name(op.Result(0)),
			e.name(v.MemRef()), e.accessIndices(v))
		return nil

	case mlir.OpAffineStore:
		v := mlir.AffineAccessView{Op: op}
		e.line("%s%s = %s;", e.name(v.MemRef()), e.accessIndices(v), e.name(v.StoredValue()))
		return nil

	case mlir.OpAffineApply:
		m, _ := op.MapAttr(mlir.AttrMap)
		names := make([]string, len(op.Operands))
		for i, o := range op.Operands {
			names[i] = e.name(o)
		}
		e.line("int %s = %s;", e.name(op.Result(0)),
			affineExprToC(m.Exprs[0], names[:m.NumDims], names[m.NumDims:]))
		return nil

	case mlir.OpAlloc, mlir.OpAlloca:
		mt := op.Result(0).Type()
		et, err := elemCType(mt.Elem)
		if err != nil {
			return err
		}
		dims := ""
		for _, d := range mt.Shape {
			dims += fmt.Sprintf("[%d]", d)
		}
		e.line("%s %s%s;", et, e.name(op.Result(0)), dims)
		return nil

	case mlir.OpDealloc:
		return nil

	case mlir.OpAffineFor:
		return e.emitFor(op)

	case mlir.OpSCFIf:
		e.line("if (%s) {", e.name(op.Operands[0]))
		e.indent++
		if err := e.emitBlock(op.Regions[0].Blocks[0]); err != nil {
			return err
		}
		e.indent--
		if len(op.Regions) > 1 {
			e.line("} else {")
			e.indent++
			if err := e.emitBlock(op.Regions[1].Blocks[0]); err != nil {
				return err
			}
			e.indent--
		}
		e.line("}")
		return nil

	case mlir.OpAffineYield, mlir.OpSCFYield, mlir.OpReturn:
		return nil

	case mlir.OpCall:
		callee, _ := op.Attr(mlir.AttrCallee).(mlir.SymbolRefAttr)
		var args []string
		for _, a := range op.Operands {
			args = append(args, e.name(a))
		}
		if len(op.Results) > 0 {
			ct, _ := ctype(op.Result(0).Type())
			e.line("%s %s = %s(%s);", ct, e.name(op.Result(0)), string(callee),
				strings.Join(args, ", "))
		} else {
			e.line("%s(%s);", string(callee), strings.Join(args, ", "))
		}
		return nil
	}
	return fmt.Errorf("cgen: cannot emit op %s", op.Name)
}

func (e *emitter) emitFor(op *mlir.Op) error {
	f := mlir.AffineForView{Op: op}
	iv := e.name(f.IV())

	boundToC := func(m *mlir.AffineMap, operands []*mlir.Value) string {
		names := make([]string, len(operands))
		for i, o := range operands {
			names[i] = e.name(o)
		}
		return affineExprToC(m.Exprs[0], names[:m.NumDims], names[m.NumDims:])
	}
	lo := boundToC(f.LowerMap(), f.LowerOperands())
	hi := boundToC(f.UpperMap(), f.UpperOperands())
	e.line("for (int %s = %s; %s < %s; %s += %d) {", iv, lo, iv, hi, iv, f.Step())
	e.indent++
	if op.HasAttr(mlir.AttrPipeline) {
		if ii, ok := op.IntAttr(mlir.AttrII); ok && ii > 0 {
			e.line("#pragma HLS pipeline II=%d", ii)
		} else {
			e.line("#pragma HLS pipeline")
		}
	}
	if u, ok := op.IntAttr(mlir.AttrUnroll); ok && u > 1 {
		e.line("#pragma HLS unroll factor=%d", u)
	}
	if op.HasAttr(mlir.AttrFlatten) {
		e.line("#pragma HLS loop_flatten")
	}
	if err := e.emitBlock(f.Body()); err != nil {
		return err
	}
	e.indent--
	e.line("}")
	return nil
}
