package cfront

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/llvm"
	lpasses "repro/internal/llvm/passes"
)

// Options configures compilation.
type Options struct {
	// Top marks the named function as the HLS top (attribute hls.top).
	Top string
}

// Compile parses and lowers C-subset source into an HLS-flavored LLVM
// module, running the standard post-frontend cleanup (mem2reg etc.).
func Compile(src string, opts Options) (*llvm.Module, error) {
	file, err := ParseC(src)
	if err != nil {
		return nil, err
	}
	m := llvm.NewModule("cfront")
	m.Flavor = llvm.FlavorHLS
	g := takeCodegen()
	defer g.release()
	for _, fd := range file.Funcs {
		f, err := g.genFunc(fd)
		if err != nil {
			return nil, fmt.Errorf("cfront: @%s: %w", fd.Name, err)
		}
		if fd.Name == opts.Top {
			f.SetAttr("hls.top", "1")
		}
		m.AddFunc(f)
	}
	for _, f := range m.Funcs {
		lpasses.Cleanup(f)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("cfront: generated invalid IR: %w", err)
	}
	return m, nil
}

// cvar is a named C variable: its storage (an alloca, or an array
// parameter), its C type and, for an array, its dimensions with the LLVM
// array type and element pointer type of every access, resolved once.
type cvar struct {
	ptr     llvm.Value
	ctype   string
	dims    []int64
	arrTy   *llvm.Type
	elemPtr *llvm.Type
}

type codegen struct {
	f *llvm.Function
	b *llvm.Builder
	// vars holds the function's variables in declaration order, and scope
	// maps a name to the one it denotes at this point of the function.
	vars  []cvar
	scope map[string]int32
	blk   int
	// ints and floats are the unused rest of the constant slabs: a
	// module's constants share its lifetime.
	ints   []llvm.ConstInt
	floats []llvm.ConstFloat
}

// codegens holds the variable tables of finished compiles.
var codegens sync.Pool

func takeCodegen() *codegen {
	g, _ := codegens.Get().(*codegen)
	if g == nil {
		g = &codegen{scope: map[string]int32{}}
	}
	return g
}

// release empties the tables, so the pool pins no module, and pools them.
func (g *codegen) release() {
	clear(g.vars)
	clear(g.scope)
	*g = codegen{vars: g.vars[:0], scope: g.scope}
	codegens.Put(g)
}

// declare makes name denote a new variable from here on.
func (g *codegen) declare(name string, v cvar) {
	if len(v.dims) > 0 {
		v.arrTy = arrayType(v.ctype, v.dims)
		v.elemPtr = llvm.Ptr(scalarType(v.ctype))
	}
	g.scope[name] = int32(len(g.vars))
	g.vars = append(g.vars, v)
}

// ci returns a new integer constant cut from the module's slab.
func (g *codegen) ci(ty *llvm.Type, v int64) *llvm.ConstInt {
	if len(g.ints) == 0 {
		g.ints = make([]llvm.ConstInt, 16)
	}
	c := &g.ints[0]
	g.ints = g.ints[1:]
	*c = llvm.ConstInt{Ty: ty, Val: v}
	return c
}

// cf returns a new floating-point constant cut from the module's slab.
func (g *codegen) cf(ty *llvm.Type, v float64) *llvm.ConstFloat {
	if len(g.floats) == 0 {
		g.floats = make([]llvm.ConstFloat, 8)
	}
	c := &g.floats[0]
	g.floats = g.floats[1:]
	*c = llvm.ConstFloat{Ty: ty, Val: v}
	return c
}

func scalarType(ct string) *llvm.Type {
	switch ct {
	case "float":
		return llvm.FloatT()
	case "double":
		return llvm.DoubleT()
	default:
		return llvm.I32()
	}
}

func arrayType(ct string, dims []int64) *llvm.Type {
	t := scalarType(ct)
	for i := len(dims) - 1; i >= 0; i-- {
		t = llvm.ArrayOf(dims[i], t)
	}
	return t
}

func (g *codegen) newBlock(prefix string) *llvm.Block {
	g.blk++
	return g.f.AddBlock(prefix + strconv.Itoa(g.blk))
}

func (g *codegen) genFunc(fd *FuncDecl) (*llvm.Function, error) {
	f := llvm.NewFunction(fd.Name, llvm.Void())
	params := make([]llvm.Param, len(fd.Params))
	if len(params) > 0 {
		f.Params = make([]*llvm.Param, len(params))
	}
	for i, pd := range fd.Params {
		ty := scalarType(pd.CType)
		if len(pd.Dims) > 0 {
			ty = llvm.Ptr(arrayType(pd.CType, pd.Dims))
		}
		params[i] = llvm.Param{Name: pd.Name, Ty: ty}
		f.Params[i] = &params[i]
	}
	g.f, g.blk = f, 0
	clear(g.vars)
	clear(g.scope)
	g.vars = g.vars[:0]
	entry := f.AddBlock("entry")
	g.b = llvm.NewBuilder(f)
	g.b.SetBlock(entry)

	// Parameters: arrays are addressable directly; scalars get a slot (as
	// Clang emits) that mem2reg later promotes.
	for i, pd := range fd.Params {
		if len(pd.Dims) > 0 {
			g.declare(pd.Name, cvar{ptr: f.Params[i], ctype: pd.CType, dims: pd.Dims})
			continue
		}
		slot := g.b.Alloca(scalarType(pd.CType))
		slot.Name = pd.Name + "_addr"
		g.b.Store(f.Params[i], slot)
		g.declare(pd.Name, cvar{ptr: slot, ctype: pd.CType})
	}

	// Apply function-level pragmas.
	for _, pr := range fd.Pragmas {
		switch pr.Kind {
		case "dataflow":
			f.SetAttr("hls.dataflow", "1")
		case "array_partition":
			if i := fd.paramIndex(pr.Var); i >= 0 {
				p := llvm.Partition{Kind: pr.Partition}
				p.Factor, _ = strconv.Atoi(pr.Factor)
				if d, err := strconv.Atoi(pr.Dim); err == nil && d > 0 {
					p.Dim = d - 1 // pragma dims are 1-based
				}
				f.SetPartition(i, p)
			}
		case "interface":
			if i := fd.paramIndex(pr.Var); i >= 0 {
				mode := pr.Mode
				if mode == "" {
					mode = "ap_memory"
				}
				f.Params[i].Attrs = append(f.Params[i].Attrs, `"hls.interface=`+mode+`"`)
			}
		}
	}

	if err := g.genStmts(fd.Body); err != nil {
		return nil, err
	}
	if t := g.b.Block().Terminator(); t == nil {
		g.b.Ret(nil)
	}
	return f, nil
}

func (g *codegen) genStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *DeclStmt:
		if len(st.Dims) > 0 {
			arr := g.b.Alloca(arrayType(st.CType, st.Dims))
			arr.Name = st.Name + "_addr"
			g.declare(st.Name, cvar{ptr: arr, ctype: st.CType, dims: st.Dims})
			return nil
		}
		slot := g.b.Alloca(scalarType(st.CType))
		slot.Name = st.Name + "_addr"
		g.declare(st.Name, cvar{ptr: slot, ctype: st.CType})
		if st.Init != nil {
			v, vt, err := g.genExpr(st.Init)
			if err != nil {
				return err
			}
			g.b.Store(g.convert(v, vt, st.CType), slot)
		}
		return nil

	case *AssignStmt:
		return g.genAssign(st)

	case *ForStmt:
		return g.genFor(st)

	case *IfStmt:
		return g.genIf(st)

	case *ReturnStmt:
		g.b.Ret(nil)
		// Subsequent statements in this block are unreachable; start a new
		// block so codegen stays well-formed.
		g.b.SetBlock(g.newBlock("dead"))
		return nil

	case *ExprStmt:
		_, _, err := g.genExpr(st.X)
		return err
	}
	return fmt.Errorf("unsupported statement %T", s)
}

// elemPtr computes the address of target (variable or array element) and
// returns the element's C type.
func (g *codegen) elemPtr(target *IndexExpr) (llvm.Value, string, error) {
	i, ok := g.scope[target.Base]
	if !ok {
		return nil, "", fmt.Errorf("undefined variable %q", target.Base)
	}
	v := g.vars[i]
	if len(target.Idxs) == 0 {
		if len(v.dims) > 0 {
			return nil, "", fmt.Errorf("array %q used without subscripts", target.Base)
		}
		return v.ptr, v.ctype, nil
	}
	if len(target.Idxs) != len(v.dims) {
		return nil, "", fmt.Errorf("%q expects %d subscripts, got %d",
			target.Base, len(v.dims), len(target.Idxs))
	}
	ops := make([]llvm.Value, 2+len(target.Idxs))
	ops[0], ops[1] = v.ptr, g.ci(llvm.I64(), 0)
	for k, ie := range target.Idxs {
		iv, it, err := g.genExpr(ie)
		if err != nil {
			return nil, "", err
		}
		iv = g.convert(iv, it, "int")
		// C subscripts sign-extend to the pointer width.
		ops[2+k] = g.b.Cast(llvm.OpSExt, iv, llvm.I64())
	}
	return g.b.GEPOperands(v.arrTy, v.elemPtr, ops), v.ctype, nil
}

func (g *codegen) genAssign(st *AssignStmt) error {
	ptr, ct, err := g.elemPtr(st.Target)
	if err != nil {
		return err
	}
	rhs, rt, err := g.genExpr(st.RHS)
	if err != nil {
		return err
	}
	rhs = g.convert(rhs, rt, ct)
	if st.Op != "=" {
		old := g.b.Load(scalarType(ct), ptr)
		var opc llvm.Opcode
		isFP := ct == "float" || ct == "double"
		switch st.Op {
		case "+=":
			opc = llvm.OpAdd
			if isFP {
				opc = llvm.OpFAdd
			}
		case "-=":
			opc = llvm.OpSub
			if isFP {
				opc = llvm.OpFSub
			}
		case "*=":
			opc = llvm.OpMul
			if isFP {
				opc = llvm.OpFMul
			}
		case "/=":
			opc = llvm.OpSDiv
			if isFP {
				opc = llvm.OpFDiv
			}
		}
		rhs = g.b.Binary(opc, old, rhs)
	}
	g.b.Store(rhs, ptr)
	return nil
}

func (g *codegen) genFor(st *ForStmt) error {
	// Counter slot.
	slot := g.b.Alloca(llvm.I32())
	slot.Name = st.IV + "_addr"
	outer, shadowed := g.scope[st.IV]
	g.declare(st.IV, cvar{ptr: slot, ctype: "int"})

	init, it, err := g.genExpr(st.Init)
	if err != nil {
		return err
	}
	g.b.Store(g.convert(init, it, "int"), slot)

	header := g.newBlock("for.cond")
	body := g.newBlock("for.body")
	latch := g.newBlock("for.inc")
	exit := g.newBlock("for.end")
	g.b.Br(header)

	g.b.SetBlock(header)
	iv := g.b.Load(llvm.I32(), slot)
	bound, bt, err := g.genExpr(st.Bound)
	if err != nil {
		return err
	}
	bound = g.convert(bound, bt, "int")
	pred := "slt"
	if st.Cmp == "<=" {
		pred = "sle"
	}
	cond := g.b.ICmp(pred, iv, bound)
	g.b.CondBr(cond, body, exit)

	g.b.SetBlock(body)
	if err := g.genStmts(st.Body); err != nil {
		return err
	}
	if g.b.Block().Terminator() == nil {
		g.b.Br(latch)
	}

	g.b.SetBlock(latch)
	iv2 := g.b.Load(llvm.I32(), slot)
	next := g.b.Add(iv2, g.ci(llvm.I32(), st.Step))
	g.b.Store(next, slot)
	back := g.b.Br(header)
	// Loop pragmas become latch metadata.
	for _, pr := range st.Pragmas {
		if back.Loop == nil {
			back.Loop = &llvm.LoopMD{}
		}
		switch pr.Kind {
		case "pipeline":
			back.Loop.Pipeline = true
			if ii, err := strconv.Atoi(pr.II); err == nil {
				back.Loop.II = ii
			}
		case "unroll":
			if fct, err := strconv.Atoi(pr.Factor); err == nil {
				back.Loop.Unroll = fct
			} else {
				back.Loop.Unroll = -1 // full
			}
		case "loop_flatten":
			back.Loop.Flatten = true
		}
	}

	g.b.SetBlock(exit)
	if shadowed {
		g.scope[st.IV] = outer
	} else {
		delete(g.scope, st.IV)
	}
	return nil
}

func (g *codegen) genIf(st *IfStmt) error {
	cond, ct, err := g.genExpr(st.Cond)
	if err != nil {
		return err
	}
	cond = g.toBool(cond, ct)
	then := g.newBlock("if.then")
	join := g.newBlock("if.end")
	elseBlk := join
	if st.Else != nil {
		elseBlk = g.newBlock("if.else")
	}
	g.b.CondBr(cond, then, elseBlk)
	g.b.SetBlock(then)
	if err := g.genStmts(st.Then); err != nil {
		return err
	}
	if g.b.Block().Terminator() == nil {
		g.b.Br(join)
	}
	if st.Else != nil {
		g.b.SetBlock(elseBlk)
		if err := g.genStmts(st.Else); err != nil {
			return err
		}
		if g.b.Block().Terminator() == nil {
			g.b.Br(join)
		}
	}
	g.b.SetBlock(join)
	return nil
}

// typeRank orders C arithmetic types for promotion.
func typeRank(ct string) int {
	switch ct {
	case "double":
		return 3
	case "float":
		return 2
	case "bool":
		return 0
	default:
		return 1
	}
}

// convert coerces a value between C types.
func (g *codegen) convert(v llvm.Value, from, to string) llvm.Value {
	if from == to {
		return v
	}
	switch {
	case from == "bool" && to == "int":
		return g.b.Cast(llvm.OpZExt, v, llvm.I32())
	case from == "bool":
		return g.convert(g.convert(v, "bool", "int"), "int", to)
	case from == "int" && (to == "float" || to == "double"):
		return g.b.Cast(llvm.OpSIToFP, v, scalarType(to))
	case (from == "float" || from == "double") && to == "int":
		return g.b.Cast(llvm.OpFPToSI, v, llvm.I32())
	case from == "float" && to == "double":
		return g.b.Cast(llvm.OpFPExt, v, llvm.DoubleT())
	case from == "double" && to == "float":
		return g.b.Cast(llvm.OpFPTrunc, v, llvm.FloatT())
	}
	return v
}

// toBool converts an arithmetic value to i1.
func (g *codegen) toBool(v llvm.Value, ct string) llvm.Value {
	if ct == "bool" {
		return v
	}
	if ct == "float" || ct == "double" {
		return g.b.FCmp("one", v, g.cf(scalarType(ct), 0))
	}
	return g.b.ICmp("ne", v, g.ci(scalarType(ct), 0))
}

// genExpr returns (value, C type). Comparisons return "bool" (i1).
func (g *codegen) genExpr(e Expr) (llvm.Value, string, error) {
	switch x := e.(type) {
	case *IntLit:
		return g.ci(llvm.I32(), x.V), "int", nil
	case *FloatLit:
		if x.IsF32 {
			return g.cf(llvm.FloatT(), x.V), "float", nil
		}
		return g.cf(llvm.DoubleT(), x.V), "double", nil
	case *IndexExpr:
		ptr, ct, err := g.elemPtr(x)
		if err != nil {
			return nil, "", err
		}
		ld := g.b.Load(scalarType(ct), ptr)
		return ld, ct, nil
	case *UnaryExpr:
		v, ct, err := g.genExpr(x.X)
		if err != nil {
			return nil, "", err
		}
		if x.Op == "!" {
			b := g.toBool(v, ct)
			one := g.ci(llvm.I1(), 1)
			return g.b.Binary(llvm.OpXor, b, one), "bool", nil
		}
		if ct == "float" || ct == "double" {
			return g.b.FNeg(v), ct, nil
		}
		return g.b.Sub(g.ci(llvm.I32(), 0), v), ct, nil
	case *CastExpr:
		v, ct, err := g.genExpr(x.X)
		if err != nil {
			return nil, "", err
		}
		return g.convert(v, ct, x.CType), x.CType, nil
	case *CondExpr:
		c, ct, err := g.genExpr(x.C)
		if err != nil {
			return nil, "", err
		}
		c = g.toBool(c, ct)
		tv, tt, err := g.genExpr(x.T)
		if err != nil {
			return nil, "", err
		}
		fv, ft, err := g.genExpr(x.F)
		if err != nil {
			return nil, "", err
		}
		common := tt
		if typeRank(ft) > typeRank(tt) {
			common = ft
		}
		tv = g.convert(tv, tt, common)
		fv = g.convert(fv, ft, common)
		return g.b.Select(c, tv, fv), common, nil
	case *CallExpr:
		var args []llvm.Value
		for _, a := range x.Args {
			v, ct, err := g.genExpr(a)
			if err != nil {
				return nil, "", err
			}
			// Math libm calls take doubles unless the f-suffixed variant.
			switch x.Name {
			case "sqrtf", "expf", "fabsf":
				v = g.convert(v, ct, "float")
			case "sqrt", "exp", "fabs":
				v = g.convert(v, ct, "double")
			}
			args = append(args, v)
		}
		ret := llvm.DoubleT()
		ctype := "double"
		switch x.Name {
		case "sqrtf", "expf", "fabsf":
			ret = llvm.FloatT()
			ctype = "float"
		}
		call := g.b.Call(x.Name, ret, args...)
		return call, ctype, nil
	case *BinaryExpr:
		return g.genBinary(x)
	}
	return nil, "", fmt.Errorf("unsupported expression %T", e)
}

func (g *codegen) genBinary(x *BinaryExpr) (llvm.Value, string, error) {
	l, lt, err := g.genExpr(x.L)
	if err != nil {
		return nil, "", err
	}
	r, rt, err := g.genExpr(x.R)
	if err != nil {
		return nil, "", err
	}
	switch x.Op {
	case "&&", "||":
		lb := g.toBool(l, lt)
		rb := g.toBool(r, rt)
		opc := llvm.OpAnd
		if x.Op == "||" {
			opc = llvm.OpOr
		}
		return g.b.Binary(opc, lb, rb), "bool", nil
	}
	common := lt
	if typeRank(rt) > typeRank(lt) {
		common = rt
	}
	if common == "bool" {
		common = "int"
	}
	l = g.convert(l, lt, common)
	r = g.convert(r, rt, common)
	isFP := common == "float" || common == "double"
	switch x.Op {
	case "+", "-", "*", "/", "%":
		var opc llvm.Opcode
		switch x.Op {
		case "+":
			opc = llvm.OpAdd
			if isFP {
				opc = llvm.OpFAdd
			}
		case "-":
			opc = llvm.OpSub
			if isFP {
				opc = llvm.OpFSub
			}
		case "*":
			opc = llvm.OpMul
			if isFP {
				opc = llvm.OpFMul
			}
		case "/":
			opc = llvm.OpSDiv
			if isFP {
				opc = llvm.OpFDiv
			}
		case "%":
			if isFP {
				return nil, "", fmt.Errorf("%% on floating operands")
			}
			opc = llvm.OpSRem
		}
		return g.b.Binary(opc, l, r), common, nil
	case "<", "<=", ">", ">=", "==", "!=":
		fpPred, intPred := cmpPreds(x.Op)
		if isFP {
			return g.b.FCmp(fpPred, l, r), "bool", nil
		}
		return g.b.ICmp(intPred, l, r), "bool", nil
	}
	return nil, "", fmt.Errorf("unsupported operator %q", x.Op)
}

// cmpPreds returns the LLVM predicates of a C comparison operator: the
// ordered one for floating operands and the signed one for integers.
func cmpPreds(op string) (fp, integer string) {
	switch op {
	case "<":
		return "olt", "slt"
	case "<=":
		return "ole", "sle"
	case ">":
		return "ogt", "sgt"
	case ">=":
		return "oge", "sge"
	case "==":
		return "oeq", "eq"
	case "!=":
		return "one", "ne"
	}
	return "", ""
}
