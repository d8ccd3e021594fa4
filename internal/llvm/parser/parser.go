package parser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/llvm"
)

// Parse parses .ll text into a module. The flavor is the one a "; Flavor:"
// line in the header comments names, as Module.Print writes it; text
// without one is FlavorHLS when a signature has a typed pointer and
// FlavorModern otherwise.
func Parse(src string) (*llvm.Module, error) {
	s := takeScratch()
	defer s.release()
	toks, err := lex(s.toks[:0], src)
	s.toks = toks
	if err != nil {
		return nil, err
	}
	p := &llParser{toks: toks, values: s.values, blocks: s.blocks,
		attrGroups: map[string]map[string]string{}, loopMDs: map[string]*llvm.LoopMD{}}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if name, ok := moduleIDComment(src); ok {
		m.Name = name
	}
	if flavor, ok := flavorComment(src); ok {
		m.Flavor = flavor
	}
	return m, nil
}

// flavorComment returns the flavor a "; Flavor: <flavor>" line among the
// comment lines that open src names, when it is one of llvm's flavors.
func flavorComment(src string) (string, bool) {
	const marker = "; Flavor: "
	for {
		src = strings.TrimLeft(src, " \t\r\n")
		if !strings.HasPrefix(src, ";") {
			return "", false
		}
		line, rest, _ := strings.Cut(src, "\n")
		if v, ok := strings.CutPrefix(line, marker); ok {
			switch v = strings.TrimSpace(v); v {
			case llvm.FlavorHLS, llvm.FlavorModern:
				return v, true
			}
			return "", false
		}
		src = rest
	}
}

// scratch is one parse's token buffer and per-function name tables.
// Tokens hold substrings of the source and the module keeps no token or
// table, so a finished parse hands them to the next one.
type scratch struct {
	toks   []token
	values map[string]llvm.Value
	blocks map[string]*llvm.Block
}

var scratches sync.Pool

func takeScratch() *scratch {
	s, _ := scratches.Get().(*scratch)
	if s == nil {
		s = &scratch{values: map[string]llvm.Value{}, blocks: map[string]*llvm.Block{}}
	}
	return s
}

// release empties the scratch, so the pool pins no source or module, and
// pools it.
func (s *scratch) release() {
	clear(s.toks)
	s.toks = s.toks[:0]
	clear(s.values)
	clear(s.blocks)
	scratches.Put(s)
}

// moduleIDComment recovers the module name from the "; ModuleID = '...'"
// header comment so printing round-trips.
func moduleIDComment(src string) (string, bool) {
	const marker = "; ModuleID = '"
	i := indexOf(src, marker)
	if i < 0 {
		return "", false
	}
	rest := src[i+len(marker):]
	j := indexOf(rest, "'")
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

type llParser struct {
	toks []token
	pos  int

	sawTypedPtr bool

	// Per-function state.
	values map[string]llvm.Value
	blocks map[string]*llvm.Block
	// pending fixups: instruction arg slots referencing not-yet-defined locals.
	fixups []fixup
	// attribute groups and loop metadata resolved after the module body.
	attrGroups map[string]map[string]string
	funcAttrs  map[*llvm.Function]string
	loopMDs    map[string]*llvm.LoopMD
	mdUses     []mdUse

	// slab batch-allocates instruction nodes: a module's instructions share
	// lifetime, so carving them from fixed arrays trades per-instr heap
	// traffic for a few larger allocations on the parse hot path.
	slab []llvm.Instr
}

// instr copies proto into the next slab slot and returns its address.
func (p *llParser) instr(proto llvm.Instr) *llvm.Instr {
	if len(p.slab) == 0 {
		p.slab = make([]llvm.Instr, 64)
	}
	in := &p.slab[0]
	p.slab = p.slab[1:]
	*in = proto
	return in
}

type fixup struct {
	in   *llvm.Instr
	arg  int
	name string
	line int
}

type mdUse struct {
	in *llvm.Instr
	id string
}

func (p *llParser) cur() token { return p.toks[p.pos] }

func (p *llParser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *llParser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("llvm parser: line %d (near %q): %s", t.line, t.text,
		fmt.Sprintf(format, args...))
}

func (p *llParser) isPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *llParser) isIdent(s string) bool {
	return p.cur().kind == tIdent && p.cur().text == s
}

func (p *llParser) expect(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func (p *llParser) parseModule() (*llvm.Module, error) {
	m := llvm.NewModule("parsed")
	p.funcAttrs = map[*llvm.Function]string{}
	for p.cur().kind != tEOF {
		t := p.cur()
		switch {
		case t.kind == tIdent && (t.text == "define" || t.text == "declare"):
			f, err := p.parseFunc(t.text == "declare")
			if err != nil {
				return nil, err
			}
			m.AddFunc(f)
		case t.kind == tIdent && t.text == "attributes":
			if err := p.parseAttrGroup(); err != nil {
				return nil, err
			}
		case t.kind == tMDRef:
			if err := p.parseMDNode(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected top-level entity")
		}
	}
	// Resolve attribute groups.
	for f, id := range p.funcAttrs {
		if attrs, ok := p.attrGroups[id]; ok {
			for k, v := range attrs {
				f.SetAttr(k, v)
			}
		}
	}
	// Resolve loop metadata.
	for _, u := range p.mdUses {
		if md, ok := p.loopMDs[u.id]; ok {
			u.in.Loop = md
		}
	}
	if p.sawTypedPtr {
		m.Flavor = llvm.FlavorHLS
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("llvm parser: parsed module invalid: %w", err)
	}
	return m, nil
}

// parseType parses a type, including postfix '*' pointers.
func (p *llParser) parseType() (*llvm.Type, error) {
	var base *llvm.Type
	t := p.cur()
	switch {
	case t.kind == tIdent && t.text == "void":
		p.next()
		base = llvm.Void()
	case t.kind == tIdent && t.text == "float":
		p.next()
		base = llvm.FloatT()
	case t.kind == tIdent && t.text == "double":
		p.next()
		base = llvm.DoubleT()
	case t.kind == tIdent && t.text == "ptr":
		p.next()
		base = llvm.Ptr(nil)
	case t.kind == tIdent && len(t.text) > 1 && t.text[0] == 'i':
		bits, err := strconv.Atoi(t.text[1:])
		if err != nil {
			return nil, p.errf("bad integer type")
		}
		// Every layer computes in 64-bit words: a wider or empty integer
		// is rejected before IntT interns its width.
		if bits < 1 || bits > 64 {
			return nil, p.errf("integer type %s: width must be 1 to 64 bits", t.text)
		}
		p.next()
		base = llvm.IntT(bits)
	case t.kind == tPunct && t.text == "[":
		p.next()
		nTok := p.cur()
		if nTok.kind != tInt {
			return nil, p.errf("expected array length")
		}
		p.next()
		if !p.isIdent("x") {
			return nil, p.errf("expected 'x' in array type")
		}
		p.next()
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		nv, _ := strconv.ParseInt(nTok.text, 10, 64)
		base = llvm.ArrayOf(nv, elem)
	case t.kind == tPunct && t.text == "{":
		p.next()
		var fields []*llvm.Type
		for !p.isPunct("}") {
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ft)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		base = llvm.StructOf(fields...)
	default:
		return nil, p.errf("expected type")
	}
	for p.isPunct("*") {
		p.next()
		p.sawTypedPtr = true
		base = llvm.Ptr(base)
	}
	return base, nil
}

func (p *llParser) parseFunc(isDecl bool) (*llvm.Function, error) {
	p.next() // define/declare
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok := p.cur()
	if nameTok.kind != tGlobal {
		return nil, p.errf("expected function name")
	}
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := llvm.NewFunction(nameTok.text, ret)
	f.IsDecl = isDecl
	clear(p.values)
	clear(p.blocks)
	p.fixups = nil

	for !p.isPunct(")") {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		var attrs []string
		for p.cur().kind == tIdent || p.cur().kind == tString {
			if p.cur().kind == tString {
				attrs = append(attrs, `"`+p.next().text+`"`)
			} else {
				attrs = append(attrs, p.next().text)
			}
		}
		pn := p.cur()
		if pn.kind != tLocal {
			return nil, p.errf("expected parameter name")
		}
		p.next()
		param := &llvm.Param{Name: pn.text, Ty: ty, Attrs: attrs}
		f.Params = append(f.Params, param)
		p.values[pn.text] = param
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next() // )

	if p.cur().kind == tAttrRef {
		p.funcAttrs[f] = p.next().text
	}
	if isDecl {
		return f, nil
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}

	var blk *llvm.Block
	for !p.isPunct("}") {
		t := p.cur()
		if t.kind == tEOF {
			return nil, p.errf("unexpected EOF in function body")
		}
		// Block label: IDENT ':'
		if t.kind == tIdent && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == ":" {
			blk = p.getOrCreateBlock(f, t.text)
			p.placeBlock(f, blk)
			p.next()
			p.next()
			continue
		}
		if blk == nil {
			return nil, p.errf("instruction before first block label")
		}
		if err := p.parseInstr(f, blk); err != nil {
			return nil, err
		}
	}
	p.next() // }

	// Resolve forward references.
	for _, fx := range p.fixups {
		v, ok := p.values[fx.name]
		if !ok {
			return nil, fmt.Errorf("llvm parser: line %d: undefined value %%%s", fx.line, fx.name)
		}
		fx.in.Args[fx.arg] = v
	}
	return f, nil
}

// getOrCreateBlock returns the named block, creating it detached for
// forward branch references; placeBlock appends it to the function in label
// order so printing round-trips.
func (p *llParser) getOrCreateBlock(f *llvm.Function, name string) *llvm.Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := &llvm.Block{Name: name, Parent: f}
	p.blocks[name] = b
	return b
}

func (p *llParser) placeBlock(f *llvm.Function, b *llvm.Block) {
	for _, x := range f.Blocks {
		if x == b {
			return
		}
	}
	f.Blocks = append(f.Blocks, b)
}

// parseOperand parses a value reference of known type. Unresolved locals
// yield a placeholder patched via fixups (the caller must register).
func (p *llParser) parseOperand(ty *llvm.Type) (llvm.Value, string, error) {
	t := p.cur()
	switch t.kind {
	case tLocal:
		p.next()
		if v, ok := p.values[t.text]; ok {
			return v, "", nil
		}
		return nil, t.text, nil
	case tInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, "", p.errf("bad integer literal")
		}
		if ty != nil && ty.IsFP() {
			return llvm.CF(ty, float64(v)), "", nil
		}
		return llvm.CI(orI64(ty), v), "", nil
	case tFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, "", p.errf("bad float literal")
		}
		return llvm.CF(orF64(ty), v), "", nil
	case tIdent:
		switch t.text {
		case "true":
			p.next()
			return llvm.CI(llvm.I1(), 1), "", nil
		case "false":
			p.next()
			return llvm.CI(llvm.I1(), 0), "", nil
		case "undef":
			p.next()
			return &llvm.Undef{Ty: ty}, "", nil
		}
	}
	return nil, "", p.errf("expected operand")
}

func orI64(t *llvm.Type) *llvm.Type {
	if t == nil {
		return llvm.I64()
	}
	return t
}

func orF64(t *llvm.Type) *llvm.Type {
	if t == nil {
		return llvm.DoubleT()
	}
	return t
}

// typedOperand parses "TYPE VALUE".
func (p *llParser) typedOperand(in *llvm.Instr) (*llvm.Type, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	v, fwd, err := p.parseOperand(ty)
	if err != nil {
		return nil, err
	}
	in.Args = append(in.Args, v)
	if fwd != "" {
		p.fixups = append(p.fixups, fixup{in: in, arg: len(in.Args) - 1, name: fwd, line: p.cur().line})
	}
	return ty, nil
}

func (p *llParser) parseAttrGroup() error {
	p.next() // attributes
	id := p.cur()
	if id.kind != tAttrRef {
		return p.errf("expected attribute group id")
	}
	p.next()
	if err := p.expect("="); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	attrs := map[string]string{}
	for !p.isPunct("}") {
		k := p.cur()
		if k.kind != tString {
			return p.errf("expected attribute key string")
		}
		p.next()
		if err := p.expect("="); err != nil {
			return err
		}
		v := p.cur()
		if v.kind != tString {
			return p.errf("expected attribute value string")
		}
		p.next()
		attrs[k.text] = v.text
	}
	p.next()
	p.attrGroups[id.text] = attrs
	return nil
}

// parseMDNode parses "!N = distinct !{!N, !"key", i32 V, ...}".
func (p *llParser) parseMDNode() error {
	id := p.next().text // !N
	if err := p.expect("="); err != nil {
		return err
	}
	if p.isIdent("distinct") {
		p.next()
	}
	if !p.isPunct("!{") {
		return p.errf("expected metadata tuple")
	}
	p.next()
	md := &llvm.LoopMD{}
	var key string
	for !p.isPunct("}") {
		t := p.cur()
		switch t.kind {
		case tMDRef:
			p.next() // self reference
		case tMDString:
			key = t.text
			p.next()
		case tIdent: // i1 / i32 typed payloads
			p.next()
			val := p.cur()
			var num int64
			switch val.kind {
			case tInt:
				num, _ = strconv.ParseInt(val.text, 10, 64)
				p.next()
			case tIdent:
				if val.text == "true" {
					num = 1
				}
				p.next()
			default:
				return p.errf("expected metadata payload")
			}
			switch key {
			case "llvm.loop.pipeline.enable":
				md.Pipeline = num != 0
			case "llvm.loop.pipeline.ii":
				md.II = int(num)
			case "llvm.loop.unroll.count":
				md.Unroll = int(num)
			case "llvm.loop.unroll.full":
				if num != 0 {
					md.Unroll = -1
				}
			case "llvm.loop.flatten.enable":
				md.Flatten = num != 0
			case "llvm.loop.tripcount":
				md.TripCount = int(num)
			}
		default:
			return p.errf("unexpected metadata token")
		}
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	p.loopMDs[id] = md
	return nil
}
