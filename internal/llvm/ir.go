package llvm

import (
	"strconv"
	"strings"
)

// Value is an SSA value or constant.
type Value interface {
	Type() *Type
	// Ident renders the value reference as it appears in instruction
	// operand position (%name, literal, or @global).
	Ident() string
}

// ConstInt is an integer constant.
type ConstInt struct {
	Ty  *Type
	Val int64
}

// CI builds an integer constant of the given type.
func CI(ty *Type, v int64) *ConstInt { return &ConstInt{Ty: ty, Val: v} }

// Type implements Value.
func (c *ConstInt) Type() *Type { return c.Ty }

// Ident implements Value.
func (c *ConstInt) Ident() string {
	if c.Ty.Bits == 1 {
		if c.Val != 0 {
			return "true"
		}
		return "false"
	}
	return strconv.FormatInt(c.Val, 10)
}

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	Ty  *Type
	Val float64
}

// CF builds a float constant of the given type.
func CF(ty *Type, v float64) *ConstFloat { return &ConstFloat{Ty: ty, Val: v} }

// Type implements Value.
func (c *ConstFloat) Type() *Type { return c.Ty }

// Ident implements Value.
func (c *ConstFloat) Ident() string {
	// Real LLVM prints a hexadecimal form to avoid precision loss; the
	// shortest round-trippable scientific form serves the same purpose here.
	return strconv.FormatFloat(c.Val, 'e', -1, 64)
}

// Undef is an undefined value of a given type.
type Undef struct{ Ty *Type }

// Type implements Value.
func (u *Undef) Type() *Type { return u.Ty }

// Ident implements Value.
func (u *Undef) Ident() string { return "undef" }

// Param is a function parameter.
type Param struct {
	Name string
	Ty   *Type
	// Attrs holds parameter attributes (e.g. "noalias"). HLS interface
	// directives from the adaptor also land here.
	Attrs []string
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Ty }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Name }

// Opcode enumerates supported instructions.
type Opcode string

// Instruction opcodes.
const (
	OpAdd         Opcode = "add"
	OpSub         Opcode = "sub"
	OpMul         Opcode = "mul"
	OpSDiv        Opcode = "sdiv"
	OpSRem        Opcode = "srem"
	OpAnd         Opcode = "and"
	OpOr          Opcode = "or"
	OpXor         Opcode = "xor"
	OpShl         Opcode = "shl"
	OpLShr        Opcode = "lshr"
	OpAShr        Opcode = "ashr"
	OpFAdd        Opcode = "fadd"
	OpFSub        Opcode = "fsub"
	OpFMul        Opcode = "fmul"
	OpFDiv        Opcode = "fdiv"
	OpFNeg        Opcode = "fneg"
	OpICmp        Opcode = "icmp"
	OpFCmp        Opcode = "fcmp"
	OpSelect      Opcode = "select"
	OpZExt        Opcode = "zext"
	OpSExt        Opcode = "sext"
	OpTrunc       Opcode = "trunc"
	OpSIToFP      Opcode = "sitofp"
	OpFPToSI      Opcode = "fptosi"
	OpFPExt       Opcode = "fpext"
	OpFPTrunc     Opcode = "fptrunc"
	OpBitcast     Opcode = "bitcast"
	OpPtrToInt    Opcode = "ptrtoint"
	OpIntToPtr    Opcode = "inttoptr"
	OpLoad        Opcode = "load"
	OpStore       Opcode = "store"
	OpGEP         Opcode = "getelementptr"
	OpAlloca      Opcode = "alloca"
	OpPhi         Opcode = "phi"
	OpBr          Opcode = "br"
	OpCondBr      Opcode = "condbr" // printed as br i1 ...
	OpRet         Opcode = "ret"
	OpCall        Opcode = "call"
	OpUnreachable Opcode = "unreachable"
	// Aggregate ops produced by upstream memref-descriptor lowering.
	OpExtractValue Opcode = "extractvalue"
	OpInsertValue  Opcode = "insertvalue"
)

// LoopMD carries structured loop metadata attached to a loop latch branch
// (the in-memory form of !llvm.loop).
type LoopMD struct {
	Pipeline  bool
	II        int
	Unroll    int // 0 = none, -1 = full
	Flatten   bool
	TripCount int // hint, 0 when unknown
}

// Instr is an instruction. A single struct covers all opcodes; opcode-
// specific fields are documented inline.
type Instr struct {
	Op   Opcode
	Name string // SSA result name (without %); "" for void results
	Ty   *Type  // result type; for store/br/ret it is nil

	Args []Value

	Pred string // icmp/fcmp predicate

	// Blocks: br target(s); for phi, the incoming block per Args entry.
	Blocks []*Block

	// Callee is the called function name (without @) for OpCall.
	Callee string

	// SrcElem is the pointee element type: gep source element type, load
	// result memory type, store value memory type, alloca allocated type.
	SrcElem *Type

	// Indices for extractvalue/insertvalue.
	Indices []int

	// Loop metadata on a latch branch.
	Loop *LoopMD

	// Align in bytes (0 = natural).
	Align int32
	// ID is the instruction's layout number, written by its function's
	// Renumber.
	ID int32

	Parent *Block
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Ty }

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Name }

// IsTerminator reports whether the instruction ends a block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// HasResult reports whether the instruction defines an SSA value.
func (in *Instr) HasResult() bool {
	return in.Ty != nil && !in.Ty.IsVoid() && in.Op != OpStore
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Function
	// ID is the block's layout number, written by its function's Renumber.
	ID int32
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in before ref.
func (b *Block) InsertBefore(in, ref *Instr) {
	idx := b.index(ref)
	if idx < 0 {
		panic("llvm: InsertBefore ref not in block")
	}
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// Remove unlinks in from the block.
func (b *Block) Remove(in *Instr) {
	idx := b.index(in)
	if idx < 0 {
		return
	}
	copy(b.Instrs[idx:], b.Instrs[idx+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.Parent = nil
}

func (b *Block) index(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Terminator returns the block's final instruction (nil when empty).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr, OpCondBr:
		return t.Blocks
	}
	return nil
}

// Function is a function definition or declaration.
type Function struct {
	Name   string
	Ret    *Type
	Params []*Param
	Blocks []*Block
	// Attrs carries function attributes; the adaptor records HLS interface
	// and partition directives here (keys prefixed "hls.").
	Attrs  map[string]string
	IsDecl bool
}

// NewFunction creates an empty function definition.
func NewFunction(name string, ret *Type, params ...*Param) *Function {
	return &Function{Name: name, Ret: ret, Params: params, Attrs: map[string]string{}}
}

// AddBlock appends a new named block. The block comes with room for its
// first eight instructions, allocated with it.
func (f *Function) AddBlock(name string) *Block {
	x := &struct {
		Block
		room [8]*Instr
	}{}
	x.Block = Block{Name: name, Parent: f, Instrs: x.room[:0]}
	f.Blocks = append(f.Blocks, &x.Block)
	return &x.Block
}

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// FindBlock returns the block with the given name, or nil.
func (f *Function) FindBlock(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Renumber writes layout numbers into f: block i of f.Blocks gets ID i,
// and the instructions get 0 through n-1 in block order; it returns n. A
// number is valid only until f's layout changes, and only for what f
// holds, so a table indexed by these numbers keeps the layout it was built
// from and checks identity (snap[x.ID] == x) before it trusts one: a
// detached, foreign or newly created block or instruction carries a stale
// or zero number.
//
// Renumber writes the IR, so it needs the same exclusive access to the
// module as a pass; so do the analyses and the verifier, which call it. It
// stores only the numbers that differ, so on a function whose numbering is
// current (one the parser returned, or one verified since its last
// change) it only reads.
func (f *Function) Renumber() int {
	n := int32(0)
	for i, b := range f.Blocks {
		if b.ID != int32(i) {
			b.ID = int32(i)
		}
		for _, in := range b.Instrs {
			if in.ID != n {
				in.ID = n
			}
			n++
		}
	}
	return int(n)
}

// SetAttr sets a function attribute.
func (f *Function) SetAttr(k, v string) {
	if f.Attrs == nil {
		f.Attrs = map[string]string{}
	}
	f.Attrs[k] = v
}

// Partition is a parameter's array-partition directive, carried as the
// function attribute hls.array_partition.argN with the value
// "kind,factor,dim" (e.g. "cyclic,2,0").
type Partition struct {
	// Kind is "cyclic", "block" or "complete".
	Kind string
	// Factor is the bank count (0 when absent); Dim is the 0-based
	// dimension partitioned.
	Factor, Dim int
}

func partitionKey(i int) string { return "hls.array_partition.arg" + strconv.Itoa(i) }

// SetPartition records parameter i's array-partition directive.
func (f *Function) SetPartition(i int, p Partition) {
	f.SetAttr(partitionKey(i), p.Kind+","+strconv.Itoa(p.Factor)+","+strconv.Itoa(p.Dim))
}

// Partition returns parameter i's array-partition directive; ok=false
// when it has none. It also reads the printed MLIR array the adaptor
// translates the value from (["cyclic", 2, 0]). A missing or malformed
// factor or dim reads as 0.
func (f *Function) Partition(i int) (p Partition, ok bool) {
	spec := f.Attrs[partitionKey(i)]
	if spec == "" {
		return p, false
	}
	field := func() string {
		var v string
		v, spec, _ = strings.Cut(spec, ",")
		return strings.Trim(v, `[]" `)
	}
	p.Kind = field()
	p.Factor, _ = strconv.Atoi(field())
	p.Dim, _ = strconv.Atoi(field())
	return p, true
}

// Module is a translation unit.
type Module struct {
	Name string
	// Flavor documents the pointer/intrinsic dialect of the module:
	// FlavorModern for mlir-translate output, FlavorHLS after adaptation.
	Flavor string
	Funcs  []*Function
}

// Module flavors.
const (
	// FlavorModern marks IR as emitted by a current LLVM (opaque pointers,
	// modern intrinsics) — what mlir-translate produces.
	FlavorModern = "modern"
	// FlavorHLS marks IR as legalized for the HLS toolchain's older LLVM
	// (typed pointers, restricted intrinsic set).
	FlavorHLS = "hls"
)

// NewModule creates an empty modern-flavored module.
func NewModule(name string) *Module {
	return &Module{Name: name, Flavor: FlavorModern}
}

// AddFunc appends a function.
func (m *Module) AddFunc(f *Function) *Function {
	m.Funcs = append(m.Funcs, f)
	return f
}

// FindFunc returns the named function, or nil.
func (m *Module) FindFunc(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ReplaceAllUses rewrites every operand use of old with repl in f.
func (f *Function) ReplaceAllUses(old, repl Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = repl
				}
			}
		}
	}
}

// HasUses reports whether v is used as an operand anywhere in f.
func (f *Function) HasUses(v Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}
