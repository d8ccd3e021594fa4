package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mlir"
)

// Parse parses MLIR source text into a module.
func Parse(src string) (*mlir.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// maxNesting bounds how deep regions, array attributes and affine
// expressions may nest. The parser and the passes after it recurse once per
// level, so without a bound a megabyte of brackets costs hundreds of
// megabytes of stack; no kernel comes near it.
const maxNesting = 256

type parser struct {
	toks []token
	pos  int

	values map[string]*mlir.Value
	blocks map[string]*mlir.Block

	// depth counts the regions and array attributes being parsed.
	depth int
	// mapDims and mapSyms are the dimensions and symbols the affine map
	// being parsed declares.
	mapDims, mapSyms int
}

// enter opens one more nesting level, failing beyond maxNesting; the
// caller closes it with p.depth--.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.cur(), format, args...)
}

// errAt reports a parse error at token t.
func errAt(t token, format string, args ...any) error {
	return fmt.Errorf("parse error at line %d col %d (near %q): %s",
		t.line, t.col, t.text, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) isIdent(s string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == s
}

func (p *parser) expectIdent(s string) error {
	if !p.isIdent(s) {
		return p.errf("expected keyword %q", s)
	}
	p.next()
	return nil
}

func (p *parser) parseModule() (*mlir.Module, error) {
	m := mlir.NewModule()
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unexpected EOF in module")
		}
		if err := p.parseFunc(m); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return m, nil
}

// scalarType returns the scalar type spelled s, or nil for a type some
// layer cannot run: the interpreters, the translation to LLVM IR, the C++
// emitter and the oracle's memory layout all handle exactly these.
func scalarType(s string) *mlir.Type {
	switch s {
	case "index":
		return mlir.Index()
	case "i1":
		return mlir.I1()
	case "i32":
		return mlir.I32()
	case "i64":
		return mlir.I64()
	case "f32":
		return mlir.F32()
	case "f64":
		return mlir.F64()
	}
	return nil
}

func (p *parser) parseType() (*mlir.Type, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected type")
	}
	if ty := scalarType(t.text); ty != nil {
		p.next()
		return ty, nil
	}
	if t.text != "memref" {
		return nil, p.errf("unsupported type %q (scalars are index, i1, i32, i64, f32, f64)", t.text)
	}
	p.next()
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	// Reassemble the shape spelling, e.g. "32x32xf32" or "?x8xf64".
	var sb strings.Builder
	for !p.isPunct(">") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated memref type")
		}
		sb.WriteString(p.next().text)
	}
	p.next() // >
	parts := strings.Split(sb.String(), "x")
	// Elements are stored at their own width: index and i1 have no memory
	// layout every layer agrees on.
	elem := scalarType(parts[len(parts)-1])
	if elem == nil || elem.IsIndex() || elem.Width == 1 {
		return nil, errAt(t, "unsupported memref<%s> (elements are i32, i64, f32, f64)", sb.String())
	}
	var shape []int64
	for _, d := range parts[:len(parts)-1] {
		if d == "?" {
			shape = append(shape, mlir.DynamicDim)
			continue
		}
		n, err := strconv.ParseInt(d, 10, 64)
		if err != nil {
			return nil, p.errf("bad memref dim %q", d)
		}
		if n < 0 {
			// -1 would otherwise read back as mlir.DynamicDim ("?").
			return nil, errAt(t, "negative dimension %d in memref<%s>", n, sb.String())
		}
		shape = append(shape, n)
	}
	return mlir.MemRef(shape, elem), nil
}

func (p *parser) lookupValue(name string) (*mlir.Value, error) {
	v, ok := p.values[name]
	if !ok {
		return nil, p.errf("use of undefined value %%%s", name)
	}
	return v, nil
}

func (p *parser) parseValueRef() (*mlir.Value, error) {
	t := p.cur()
	if t.kind != tokValueID {
		return nil, p.errf("expected SSA value")
	}
	p.next()
	return p.lookupValue(t.text)
}

// parseValueList parses %a, %b, ... (possibly empty, ended by a non-value).
func (p *parser) parseValueList() ([]*mlir.Value, error) {
	var out []*mlir.Value
	for p.cur().kind == tokValueID {
		v, err := p.parseValueRef()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if !p.isPunct(",") {
			break
		}
		p.next()
	}
	return out, nil
}

func (p *parser) parseFunc(m *mlir.Module) error {
	if err := p.expectIdent("func.func"); err != nil {
		return err
	}
	sym := p.cur()
	if sym.kind != tokSymbol {
		return p.errf("expected function symbol")
	}
	p.next()
	if err := p.expectPunct("("); err != nil {
		return err
	}
	p.values = map[string]*mlir.Value{}
	p.blocks = map[string]*mlir.Block{}

	var argNames []string
	var argTypes []*mlir.Type
	for !p.isPunct(")") {
		a := p.cur()
		if a.kind != tokValueID {
			return p.errf("expected argument name")
		}
		p.next()
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		argNames = append(argNames, a.text)
		argTypes = append(argTypes, ty)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next() // )

	var resultTypes []*mlir.Type
	if p.isPunct("->") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.isPunct(")") {
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			resultTypes = append(resultTypes, ty)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}

	f, args := m.AddFunc(sym.text, argTypes, resultTypes)
	for i, n := range argNames {
		p.values[n] = args[i]
	}

	if p.isIdent("attributes") {
		p.next()
		if err := p.parseAttrDict(f); err != nil {
			return err
		}
	}

	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.parseRegionInto(f.Regions[0], false); err != nil {
		return err
	}
	return nil
}

// parseRegionInto parses ops until the closing '}' into region r (which must
// already have an entry block). implicitYield selects the terminator to add
// when a structured region body omits it.
func (p *parser) parseRegionInto(r *mlir.Region, implicitYield bool) error {
	if err := p.enter(); err != nil {
		return err
	}
	defer func() { p.depth-- }()
	current := r.Entry()
	for {
		t := p.cur()
		if t.kind == tokPunct && t.text == "}" {
			p.next()
			break
		}
		if t.kind == tokEOF {
			return p.errf("unexpected EOF in region")
		}
		if t.kind == tokBlockID {
			blk, err := p.parseBlockLabel(r, current)
			if err != nil {
				return err
			}
			current = blk
			continue
		}
		if err := p.parseOp(current); err != nil {
			return err
		}
	}
	// Add implicit terminators for structured regions.
	if implicitYield {
		for _, b := range r.Blocks {
			term := b.Terminator()
			if term == nil || !term.IsTerminator() {
				yieldName := mlir.OpAffineYield
				if op := r.ParentOp(); op != nil && (op.Name == mlir.OpSCFFor || op.Name == mlir.OpSCFIf) {
					yieldName = mlir.OpSCFYield
				}
				b.Append(mlir.NewOp(yieldName, nil, nil))
			}
		}
	}
	return nil
}

func (p *parser) getOrCreateBlock(name string) *mlir.Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := mlir.NewBlock()
	p.blocks[name] = b
	return b
}

// parseBlockLabel handles "^bbN(%a: ty, ...):". The first label in a region
// with an empty entry block renames the entry block instead of adding one.
func (p *parser) parseBlockLabel(r *mlir.Region, current *mlir.Block) (*mlir.Block, error) {
	lbl := p.next() // block id
	var blk *mlir.Block
	entry := r.Entry()
	if len(entry.Ops) == 0 && current == entry && p.blocks[lbl.text] == nil && !entryLabeled(p.blocks, entry) {
		blk = entry
		p.blocks[lbl.text] = blk
	} else {
		blk = p.getOrCreateBlock(lbl.text)
		if blk.Region() == nil {
			r.AddBlock(blk)
		}
	}
	if p.isPunct("(") {
		p.next()
		argIdx := 0
		for !p.isPunct(")") {
			a := p.cur()
			if a.kind != tokValueID {
				return nil, p.errf("expected block argument")
			}
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if argIdx < len(blk.Args) {
				// Entry block reusing function-signature args.
				p.values[a.text] = blk.Args[argIdx]
			} else {
				p.values[a.text] = blk.AddArg(ty)
			}
			argIdx++
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	return blk, nil
}

func entryLabeled(blocks map[string]*mlir.Block, entry *mlir.Block) bool {
	for _, b := range blocks {
		if b == entry {
			return true
		}
	}
	return false
}

// parseIndexList parses [%a, %b] (possibly empty).
func (p *parser) parseIndexList() ([]*mlir.Value, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	vals, err := p.parseValueList()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return vals, nil
}

// maybeAttrDict parses an optional trailing {attr} dictionary into op.
func (p *parser) maybeAttrDict(op *mlir.Op) error {
	if !p.isPunct("{") {
		return nil
	}
	return p.parseAttrDict(op)
}

// parseAttrDict parses {attr, ...} into op's attributes; a repeated name
// keeps its last value.
func (p *parser) parseAttrDict(op *mlir.Op) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		key := p.cur()
		if key.kind != tokIdent && key.kind != tokString {
			return p.errf("expected attribute key")
		}
		p.next()
		if p.isPunct("=") {
			p.next()
			val, err := p.parseAttrValue()
			if err != nil {
				return err
			}
			op.SetAttr(key.text, val)
		} else {
			op.SetAttr(key.text, mlir.UnitAttr{})
		}
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	return nil
}

func (p *parser) parseAttrValue() (mlir.Attr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer attr")
		}
		a := mlir.IntAttr{Value: v}
		if p.isPunct(":") {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			a.Ty = ty
		}
		return a, nil
	case t.kind == tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float attr")
		}
		a := mlir.FloatAttr{Value: v}
		if p.isPunct(":") {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			a.Ty = ty
		}
		return a, nil
	case t.kind == tokString:
		p.next()
		return mlir.StringAttr(t.text), nil
	case t.kind == tokSymbol:
		p.next()
		return mlir.SymbolRefAttr(t.text), nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return mlir.BoolAttr(true), nil
	case t.kind == tokIdent && t.text == "false":
		p.next()
		return mlir.BoolAttr(false), nil
	case t.kind == tokIdent && t.text == "unit":
		p.next()
		return mlir.UnitAttr{}, nil
	case t.kind == tokIdent && t.text == "affine_map":
		m, err := p.parseAffineMapLiteral()
		if err != nil {
			return nil, err
		}
		return mlir.AffineMapAttr{Map: m}, nil
	case t.kind == tokPunct && t.text == "[":
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.next()
		var arr mlir.ArrayAttr
		for !p.isPunct("]") {
			el, err := p.parseAttrValue()
			if err != nil {
				return nil, err
			}
			arr = append(arr, el)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		return arr, nil
	case t.kind == tokIdent:
		// Try a type attribute.
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return mlir.TypeAttr{Ty: ty}, nil
	}
	return nil, p.errf("expected attribute value")
}

// parseAffineMapLiteral parses affine_map<(d0,...)[s0,...] -> (exprs)>.
// Expressions must stay affine and within the declared dimensions and
// symbols; a violation is a parse error at the offending token.
func (p *parser) parseAffineMapLiteral() (*mlir.AffineMap, error) {
	if err := p.expectIdent("affine_map"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	numDims := 0
	for !p.isPunct(")") {
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected dim name")
		}
		p.next()
		numDims++
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	numSyms := 0
	if p.isPunct("[") {
		p.next()
		for !p.isPunct("]") {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected symbol name")
			}
			p.next()
			numSyms++
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}
	if err := p.expectPunct("->"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.mapDims, p.mapSyms = numDims, numSyms
	var exprs []*mlir.AffineExpr
	for !p.isPunct(")") {
		e, _, err := p.parseAffineExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	return mlir.NewMap(numDims, numSyms, exprs...), nil
}

// The affine expression parsers return each expression with the depth of
// its tree, which may not exceed maxNesting: the passes that read a map
// recurse once per level.

// combine checks the depth of a node over subtrees of depths l and r.
func (p *parser) combine(l, r int) (int, error) {
	d := max(l, r) + 1
	if d > maxNesting {
		return 0, p.errf("affine expression nested deeper than %d levels", maxNesting)
	}
	return d, nil
}

func (p *parser) parseAffineExpr() (*mlir.AffineExpr, int, error) {
	lhs, ld, err := p.parseAffineTerm()
	if err != nil {
		return nil, 0, err
	}
	for {
		switch {
		case p.isPunct("+"):
			p.next()
			rhs, rd, err := p.parseAffineTerm()
			if err != nil {
				return nil, 0, err
			}
			if ld, err = p.combine(ld, rd); err != nil {
				return nil, 0, err
			}
			lhs = mlir.Add(lhs, rhs)
		case p.isPunct("-"):
			p.next()
			rhs, rd, err := p.parseAffineTerm()
			if err != nil {
				return nil, 0, err
			}
			if ld, err = p.combine(ld, rd+1); err != nil {
				return nil, 0, err
			}
			lhs = mlir.Add(lhs, mlir.Mul(rhs, mlir.Const(-1)))
		default:
			return lhs, ld, nil
		}
	}
}

func (p *parser) parseAffineTerm() (*mlir.AffineExpr, int, error) {
	lhs, ld, err := p.parseAffineFactor()
	if err != nil {
		return nil, 0, err
	}
	for {
		opTok := p.cur()
		op := opTok.text
		switch {
		case p.isPunct("*"):
		case p.isIdent("mod"), p.isIdent("floordiv"), p.isIdent("ceildiv"):
		default:
			return lhs, ld, nil
		}
		p.next()
		rhs, rd, err := p.parseAffineFactor()
		if err != nil {
			return nil, 0, err
		}
		if ld, err = p.combine(ld, rd); err != nil {
			return nil, 0, err
		}
		if op == "*" {
			if !lhs.IsConst() && !rhs.IsConst() {
				return nil, 0, errAt(opTok, "non-affine product: one factor of * must be a constant")
			}
			lhs = mlir.Mul(lhs, rhs)
			continue
		}
		if !rhs.IsConst() {
			return nil, 0, p.errf("%s by non-constant", op)
		}
		if rhs.Val <= 0 {
			return nil, 0, errAt(opTok, "%s by non-positive constant %d", op, rhs.Val)
		}
		switch op {
		case "mod":
			lhs = mlir.Mod(lhs, rhs.Val)
		case "floordiv":
			lhs = mlir.FloorDiv(lhs, rhs.Val)
		default:
			lhs = mlir.CeilDiv(lhs, rhs.Val)
		}
	}
}

func (p *parser) parseAffineFactor() (*mlir.AffineExpr, int, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, 0, p.errf("bad affine constant")
		}
		return mlir.Const(v), 1, nil
	case t.kind == tokPunct && t.text == "(":
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		defer func() { p.depth-- }()
		p.next()
		e, d, err := p.parseAffineExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, 0, err
		}
		return e, d, nil
	case t.kind == tokPunct && t.text == "-":
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		defer func() { p.depth-- }()
		p.next()
		e, d, err := p.parseAffineFactor()
		if err != nil {
			return nil, 0, err
		}
		if d, err = p.combine(d, 1); err != nil {
			return nil, 0, err
		}
		return mlir.Mul(e, mlir.Const(-1)), d, nil
	case t.kind == tokIdent && len(t.text) > 1 && (t.text[0] == 'd' || t.text[0] == 's'):
		idx, err := strconv.Atoi(t.text[1:])
		if err != nil {
			return nil, 0, p.errf("bad dim/symbol %q", t.text)
		}
		if t.text[0] == 'd' {
			if idx >= p.mapDims {
				return nil, 0, p.errf("%s is beyond the map's %d dimensions", t.text, p.mapDims)
			}
			p.next()
			return mlir.Dim(idx), 1, nil
		}
		if idx >= p.mapSyms {
			return nil, 0, p.errf("%s is beyond the map's %d symbols", t.text, p.mapSyms)
		}
		p.next()
		return mlir.Sym(idx), 1, nil
	}
	return nil, 0, p.errf("expected affine expression")
}
