package cfront

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// tokenBuf is a parse's token buffer. Tokens hold substrings of the
// source, and the AST keeps only those substrings, never a token.
type tokenBuf struct {
	toks []token
}

// tokenBufs holds the token buffers of finished parses.
var tokenBufs sync.Pool

// ParseC parses C-subset source text.
func ParseC(src string) (*File, error) {
	buf, _ := tokenBufs.Get().(*tokenBuf)
	if buf == nil {
		buf = &tokenBuf{}
	}
	defer buf.release()
	toks, err := lex(buf.toks[:0], src)
	buf.toks = toks
	if err != nil {
		return nil, err
	}
	p := &cparser{toks: toks}
	return p.parseFile()
}

// release empties the buffer, so the pool pins no source, and pools it.
func (b *tokenBuf) release() {
	clear(b.toks)
	b.toks = b.toks[:0]
	tokenBufs.Put(b)
}

type cparser struct {
	toks []token
	pos  int
}

func (p *cparser) cur() token { return p.toks[p.pos] }

func (p *cparser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *cparser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("cfront: line %d (near %q): %s", t.line, t.text,
		fmt.Sprintf(format, args...))
}

func (p *cparser) isPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *cparser) isIdent(s string) bool {
	return p.cur().kind == tIdent && p.cur().text == s
}

func (p *cparser) expect(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func isTypeName(s string) bool {
	switch s {
	case "float", "double", "int", "void":
		return true
	}
	return false
}

func (p *cparser) parseFile() (*File, error) {
	f := &File{}
	for p.cur().kind != tEOF {
		if p.cur().kind == tPragma {
			// Stray file-level pragma: ignore (include guards etc.).
			p.next()
			continue
		}
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		f.Funcs = append(f.Funcs, fn)
	}
	return f, nil
}

func (p *cparser) parseFunc() (*FuncDecl, error) {
	ret := p.cur()
	if ret.kind != tIdent || !isTypeName(ret.text) {
		return nil, p.errf("expected return type")
	}
	if ret.text != "void" {
		return nil, p.errf("only void functions are supported")
	}
	p.next()
	name := p.cur()
	if name.kind != tIdent {
		return nil, p.errf("expected function name")
	}
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.text}
	for !p.isPunct(")") {
		ct := p.cur()
		if ct.kind != tIdent || !isTypeName(ct.text) {
			return nil, p.errf("expected parameter type")
		}
		p.next()
		pn := p.cur()
		if pn.kind != tIdent {
			return nil, p.errf("expected parameter name")
		}
		p.next()
		pd := &ParamDecl{Name: pn.text, CType: ct.text}
		for p.isPunct("[") {
			p.next()
			d := p.cur()
			if d.kind != tInt {
				return nil, p.errf("expected constant array dimension")
			}
			p.next()
			v, _ := strconv.ParseInt(d.text, 10, 64)
			pd.Dims = append(pd.Dims, v)
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		fn.Params = append(fn.Params, pd)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next() // )
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	body, pragmas, err := p.parseBlock(fn)
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.Pragmas = append(fn.Pragmas, pragmas...)
	return fn, nil
}

// parseBlock parses statements until '}'. Loop-scoped pragmas inside for
// bodies attach to the loop; others bubble up to the function.
func (p *cparser) parseBlock(fn *FuncDecl) ([]Stmt, []Pragma, error) {
	var stmts []Stmt
	var funcPragmas []Pragma
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, nil, p.errf("unexpected EOF in block")
		}
		if p.cur().kind == tPragma {
			pr, err := parsePragma(p.next().text)
			if err != nil {
				return nil, nil, err
			}
			if pr != nil {
				funcPragmas = append(funcPragmas, *pr)
			}
			continue
		}
		s, prs, err := p.parseStmt(fn)
		if err != nil {
			return nil, nil, err
		}
		funcPragmas = append(funcPragmas, prs...)
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	p.next() // }
	return stmts, funcPragmas, nil
}

// parsePragma decodes "#pragma HLS ...". Unknown pragmas return nil.
func parsePragma(text string) (*Pragma, error) {
	fields := strings.Fields(text)
	// fields[0] == "#pragma"
	if len(fields) < 3 || !strings.EqualFold(fields[1], "HLS") {
		return nil, nil
	}
	pr := &Pragma{Kind: strings.ToLower(fields[2])}
	for _, f := range fields[3:] {
		if eq := strings.IndexByte(f, '='); eq >= 0 {
			v := f[eq+1:]
			switch strings.ToLower(f[:eq]) {
			case "variable", "port":
				pr.Var = v
			case "ii":
				pr.II = v
			case "factor":
				pr.Factor = v
			case "dim":
				pr.Dim = v
			case "kind":
				pr.Partition = v
			case "mode":
				pr.Mode = v
			}
			continue
		}
		// Bare words: interface mode or partition kind.
		switch w := strings.ToLower(f); w {
		case "cyclic", "block", "complete":
			pr.Partition = w
		case "ap_memory", "ap_none", "m_axi", "bram":
			pr.Mode = w
		}
	}
	return pr, nil
}

func (p *cparser) parseStmt(fn *FuncDecl) (Stmt, []Pragma, error) {
	t := p.cur()
	switch {
	case t.kind == tIdent && t.text == "for":
		return p.parseFor(fn)
	case t.kind == tIdent && t.text == "if":
		return p.parseIf(fn)
	case t.kind == tIdent && t.text == "return":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
		return &ReturnStmt{}, nil, nil
	case t.kind == tIdent && isTypeName(t.text):
		return p.parseDecl()
	default:
		// Assignment or expression statement.
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		if p.isPunct("=") || p.isPunct("+=") || p.isPunct("-=") ||
			p.isPunct("*=") || p.isPunct("/=") {
			op := p.next().text
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, nil, err
			}
			target, ok := lhs.(*IndexExpr)
			if !ok {
				return nil, nil, p.errf("assignment target must be a variable or element")
			}
			return &AssignStmt{Target: target, Op: op, RHS: rhs}, nil, nil
		}
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
		return &ExprStmt{X: lhs}, nil, nil
	}
}

func (p *cparser) parseDecl() (Stmt, []Pragma, error) {
	ct := p.next().text
	name := p.cur()
	if name.kind != tIdent {
		return nil, nil, p.errf("expected declaration name")
	}
	p.next()
	d := &DeclStmt{Name: name.text, CType: ct}
	for p.isPunct("[") {
		p.next()
		dim := p.cur()
		if dim.kind != tInt {
			return nil, nil, p.errf("expected constant dimension")
		}
		p.next()
		v, _ := strconv.ParseInt(dim.text, 10, 64)
		d.Dims = append(d.Dims, v)
		if err := p.expect("]"); err != nil {
			return nil, nil, err
		}
	}
	if p.isPunct("=") {
		p.next()
		init, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		d.Init = init
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	return d, nil, nil
}

func (p *cparser) parseFor(fn *FuncDecl) (Stmt, []Pragma, error) {
	p.next() // for
	if err := p.expect("("); err != nil {
		return nil, nil, err
	}
	if !p.isIdent("int") {
		return nil, nil, p.errf("for loops must declare an int counter")
	}
	p.next()
	iv := p.cur()
	if iv.kind != tIdent {
		return nil, nil, p.errf("expected loop counter name")
	}
	p.next()
	if err := p.expect("="); err != nil {
		return nil, nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	cn := p.cur()
	if cn.kind != tIdent || cn.text != iv.text {
		return nil, nil, p.errf("loop condition must test the counter")
	}
	p.next()
	cmp := p.cur().text
	if cmp != "<" && cmp != "<=" {
		return nil, nil, p.errf("loop condition must be < or <=")
	}
	p.next()
	bound, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	in := p.cur()
	if in.kind != tIdent || in.text != iv.text {
		return nil, nil, p.errf("loop increment must update the counter")
	}
	p.next()
	step := int64(1)
	switch {
	case p.isPunct("+="):
		p.next()
		st := p.cur()
		if st.kind != tInt {
			return nil, nil, p.errf("loop step must be a constant")
		}
		p.next()
		step, _ = strconv.ParseInt(st.text, 10, 64)
	case p.isPunct("+") && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "+":
		p.next()
		p.next()
	default:
		return nil, nil, p.errf("loop increment must be += or ++")
	}
	if err := p.expect(")"); err != nil {
		return nil, nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, nil, err
	}

	f := &ForStmt{IV: iv.text, Init: init, Bound: bound, Cmp: cmp, Step: step}
	// Loop pragmas: leading pragmas in the body attach to this loop.
	var bodyStmts []Stmt
	var funcPragmas []Pragma
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, nil, p.errf("unexpected EOF in loop body")
		}
		if p.cur().kind == tPragma {
			pr, err := parsePragma(p.next().text)
			if err != nil {
				return nil, nil, err
			}
			if pr == nil {
				continue
			}
			switch pr.Kind {
			case "pipeline", "unroll", "loop_flatten":
				f.Pragmas = append(f.Pragmas, *pr)
			default:
				funcPragmas = append(funcPragmas, *pr)
			}
			continue
		}
		s, prs, err := p.parseStmt(fn)
		if err != nil {
			return nil, nil, err
		}
		funcPragmas = append(funcPragmas, prs...)
		if s != nil {
			bodyStmts = append(bodyStmts, s)
		}
	}
	p.next() // }
	f.Body = bodyStmts
	return f, funcPragmas, nil
}

func (p *cparser) parseIf(fn *FuncDecl) (Stmt, []Pragma, error) {
	p.next() // if
	if err := p.expect("("); err != nil {
		return nil, nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, nil, err
	}
	then, prs, err := p.parseBlock(fn)
	if err != nil {
		return nil, nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.isIdent("else") {
		p.next()
		if err := p.expect("{"); err != nil {
			return nil, nil, err
		}
		els, prs2, err := p.parseBlock(fn)
		if err != nil {
			return nil, nil, err
		}
		st.Else = els
		prs = append(prs, prs2...)
	}
	return st, prs, nil
}

// Expression grammar: ternary > or > and > equality > relational > additive
// > multiplicative > unary > postfix > primary.

func (p *cparser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *cparser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return c, nil
	}
	p.next()
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	f, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &CondExpr{C: c, T: t, F: f}, nil
}

var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *cparser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precLevels[level] {
			if p.isPunct(op) {
				p.next()
				rhs, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &BinaryExpr{Op: op, L: lhs, R: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *cparser) parseUnary() (Expr, error) {
	if p.isPunct("-") || p.isPunct("!") {
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x}, nil
	}
	// Cast: "(" type ")" unary
	if p.isPunct("(") && p.toks[p.pos+1].kind == tIdent && isTypeName(p.toks[p.pos+1].text) &&
		p.toks[p.pos+2].kind == tPunct && p.toks[p.pos+2].text == ")" {
		p.next()
		ct := p.next().text
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &CastExpr{CType: ct, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *cparser) parsePostfix() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal")
		}
		return &IntLit{V: v}, nil
	case tFloat:
		p.next()
		txt := t.text
		isF32 := false
		if strings.HasSuffix(txt, "f") || strings.HasSuffix(txt, "F") {
			isF32 = true
			txt = txt[:len(txt)-1]
		}
		v, err := strconv.ParseFloat(txt, 64)
		if err != nil {
			return nil, p.errf("bad float literal")
		}
		return &FloatLit{V: v, IsF32: isF32}, nil
	case tIdent:
		p.next()
		// Call?
		if p.isPunct("(") {
			p.next()
			var args []Expr
			for !p.isPunct(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isPunct(",") {
					p.next()
				}
			}
			p.next()
			return &CallExpr{Name: t.text, Args: args}, nil
		}
		ix := &IndexExpr{Base: t.text}
		for p.isPunct("[") {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			ix.Idxs = append(ix.Idxs, e)
		}
		return ix, nil
	case tPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("expected expression")
}
