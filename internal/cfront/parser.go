package cfront

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
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
	fn   *FuncDecl // the function being parsed, which collects its pragmas

	// The AST's nodes and lists are cut from slabs: a file's nodes share
	// its lifetime, so a few chunk allocations replace one per node.
	idxs   slab[IndexExpr]
	bins   slab[BinaryExpr]
	ints   slab[IntLit]
	decls  slab[DeclStmt]
	assign slab[AssignStmt]
	exprs  lists[Expr]
	stmts  lists[Stmt]
}

// slab hands out values cut from chunks that start at 8 values and double
// up to 64, so a small file wastes little of its last chunk.
type slab[T any] struct {
	free []T
	size int
}

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 8), 64)
		s.free = make([]T, s.size)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

// lists gathers each list on a stack and, once it is complete, cuts it to
// its length from chunks of at least 64 values. A nested list pushes above
// the one it interrupts and is cut before that one resumes.
type lists[T any] struct {
	stack []T
	free  []T
}

// push appends x to the list being gathered.
func (l *lists[T]) push(x T) { l.stack = append(l.stack, x) }

// cut pops the values pushed since the stack held from and returns them
// as one list, nil when there are none.
func (l *lists[T]) cut(from int) []T {
	n := len(l.stack) - from
	if n == 0 {
		return nil
	}
	if len(l.free) < n {
		l.free = make([]T, max(n, 64))
	}
	out := l.free[:n:n]
	l.free = l.free[n:]
	copy(out, l.stack[from:])
	l.stack = l.stack[:from]
	return out
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
	p.fn = fn
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseBlock parses statements until '}'. Its pragmas, and those of the
// statements in it that no loop claims, go to the function in source
// order.
func (p *cparser) parseBlock() ([]Stmt, error) {
	from := len(p.stmts.stack)
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		if p.cur().kind == tPragma {
			if pr, ok := parsePragma(p.next().text); ok {
				p.fn.Pragmas = append(p.fn.Pragmas, pr)
			}
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts.push(s)
	}
	p.next() // }
	return p.stmts.cut(from), nil
}

// parsePragma decodes "#pragma HLS ...": its fields are split as
// strings.Fields splits them. ok is false for any other pragma.
func parsePragma(text string) (pr Pragma, ok bool) {
	_, rest := nextField(text) // "#pragma"
	hls, rest := nextField(rest)
	kind, rest := nextField(rest)
	if kind == "" || !strings.EqualFold(hls, "HLS") {
		return pr, false
	}
	pr.Kind = strings.ToLower(kind)
	for {
		var f string
		if f, rest = nextField(rest); f == "" {
			return pr, true
		}
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
}

// nextField returns the first run of non-space characters in s, as
// unicode.IsSpace tells them apart, and what follows it; field is "" when
// s holds none.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		c, n := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, n = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(c) {
			if start >= 0 {
				return s[start:i], s[i:]
			}
		} else if start < 0 {
			start = i
		}
		i += n
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

func (p *cparser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tIdent && t.text == "for":
		return p.parseFor()
	case t.kind == tIdent && t.text == "if":
		return p.parseIf()
	case t.kind == tIdent && t.text == "return":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{}, nil
	case t.kind == tIdent && isTypeName(t.text):
		return p.parseDecl()
	default:
		// Assignment or expression statement.
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.isPunct("=") || p.isPunct("+=") || p.isPunct("-=") ||
			p.isPunct("*=") || p.isPunct("/=") {
			op := p.next().text
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			target, ok := lhs.(*IndexExpr)
			if !ok {
				return nil, p.errf("assignment target must be a variable or element")
			}
			st := p.assign.next()
			*st = AssignStmt{Target: target, Op: op, RHS: rhs}
			return st, nil
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: lhs}, nil
	}
}

func (p *cparser) parseDecl() (Stmt, error) {
	ct := p.next().text
	name := p.cur()
	if name.kind != tIdent {
		return nil, p.errf("expected declaration name")
	}
	p.next()
	d := p.decls.next()
	*d = DeclStmt{Name: name.text, CType: ct}
	for p.isPunct("[") {
		p.next()
		dim := p.cur()
		if dim.kind != tInt {
			return nil, p.errf("expected constant dimension")
		}
		p.next()
		v, _ := strconv.ParseInt(dim.text, 10, 64)
		d.Dims = append(d.Dims, v)
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.isPunct("=") {
		p.next()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *cparser) parseFor() (Stmt, error) {
	p.next() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.isIdent("int") {
		return nil, p.errf("for loops must declare an int counter")
	}
	p.next()
	iv := p.cur()
	if iv.kind != tIdent {
		return nil, p.errf("expected loop counter name")
	}
	p.next()
	if err := p.expect("="); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	cn := p.cur()
	if cn.kind != tIdent || cn.text != iv.text {
		return nil, p.errf("loop condition must test the counter")
	}
	p.next()
	cmp := p.cur().text
	if cmp != "<" && cmp != "<=" {
		return nil, p.errf("loop condition must be < or <=")
	}
	p.next()
	bound, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	in := p.cur()
	if in.kind != tIdent || in.text != iv.text {
		return nil, p.errf("loop increment must update the counter")
	}
	p.next()
	step := int64(1)
	switch {
	case p.isPunct("+="):
		p.next()
		st := p.cur()
		if st.kind != tInt {
			return nil, p.errf("loop step must be a constant")
		}
		p.next()
		step, _ = strconv.ParseInt(st.text, 10, 64)
	case p.isPunct("+") && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "+":
		p.next()
		p.next()
	default:
		return nil, p.errf("loop increment must be += or ++")
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}

	f := &ForStmt{IV: iv.text, Init: init, Bound: bound, Cmp: cmp, Step: step}
	// Loop pragmas in the body attach to this loop; others go to the
	// function.
	from := len(p.stmts.stack)
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf("unexpected EOF in loop body")
		}
		if p.cur().kind == tPragma {
			pr, ok := parsePragma(p.next().text)
			switch {
			case !ok:
			case pr.Kind == "pipeline" || pr.Kind == "unroll" || pr.Kind == "loop_flatten":
				f.Pragmas = append(f.Pragmas, pr)
			default:
				p.fn.Pragmas = append(p.fn.Pragmas, pr)
			}
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts.push(s)
	}
	p.next() // }
	f.Body = p.stmts.cut(from)
	return f, nil
}

func (p *cparser) parseIf() (Stmt, error) {
	p.next() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.isIdent("else") {
		p.next()
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

// Expression grammar: ternary > binary operators by precedence > unary >
// postfix > primary.

func (p *cparser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *cparser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(1)
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

// binaryPrec returns how tightly the binary operator t binds, from 1 (||)
// to 6 (* / %), or 0 when t is not one.
func binaryPrec(t token) int {
	if t.kind != tPunct {
		return 0
	}
	switch t.text {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=":
		return 3
	case "<", "<=", ">", ">=":
		return 4
	case "+", "-":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 0
}

// parseBinary parses a chain of operands joined by binary operators that
// bind at least as tightly as minPrec, by precedence climbing: every
// operator is left-associative, so its right operand takes only operators
// that bind more tightly.
func (p *cparser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := binaryPrec(p.cur())
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		op := p.next().text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		b := p.bins.next()
		*b = BinaryExpr{Op: op, L: lhs, R: rhs}
		lhs = b
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
		lit := p.ints.next()
		lit.V = v
		return lit, nil
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
			from := len(p.exprs.stack)
			for !p.isPunct(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.exprs.push(a)
				if p.isPunct(",") {
					p.next()
				}
			}
			p.next()
			return &CallExpr{Name: t.text, Args: p.exprs.cut(from)}, nil
		}
		from := len(p.exprs.stack)
		for p.isPunct("[") {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			p.exprs.push(e)
		}
		ix := p.idxs.next()
		*ix = IndexExpr{Base: t.text, Idxs: p.exprs.cut(from)}
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
