package cfront

// File is a parsed translation unit.
type File struct {
	Funcs []*FuncDecl
}

// FuncDecl is a void function definition.
type FuncDecl struct {
	Name    string
	Params  []*ParamDecl
	Body    []Stmt
	Pragmas []Pragma // function-level pragmas (interface, array_partition)
}

// ParamDecl is one parameter: a scalar or a constant-dimension array.
type ParamDecl struct {
	Name  string
	CType string  // "float", "double", "int"
	Dims  []int64 // empty for scalars
}

// Pragma is a parsed #pragma HLS directive. Its options hold their text
// as written, "" when absent; options the flow does not read are dropped.
type Pragma struct {
	Kind string // "pipeline", "unroll", "array_partition", "interface"
	Var  string // variable/port operand, if any

	II        string // pipeline II=
	Factor    string // unroll or array_partition factor=
	Dim       string // array_partition dim=
	Partition string // array_partition kind: "cyclic", "block", "complete"
	Mode      string // interface mode: "ap_memory", "m_axi", ...
}

// Stmt is a statement node.
type Stmt interface{ isStmt() }

// DeclStmt declares a local scalar (with optional init) or array.
type DeclStmt struct {
	Name  string
	CType string
	Dims  []int64
	Init  Expr // nil for arrays / uninitialized
}

// AssignStmt assigns to a variable or array element.
type AssignStmt struct {
	Target *IndexExpr // Idxs empty for plain variables
	Op     string     // "=", "+=", "-=", "*=", "/="
	RHS    Expr
}

// ForStmt is a canonical counted loop: for (int IV = Init; IV < Bound; IV += Step).
type ForStmt struct {
	IV      string
	Init    Expr
	Bound   Expr
	Cmp     string // "<" or "<="
	Step    int64
	Pragmas []Pragma
	Body    []Stmt
}

// IfStmt is a conditional.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ReturnStmt returns from a void function.
type ReturnStmt struct{}

// ExprStmt evaluates an expression for its effects (calls).
type ExprStmt struct{ X Expr }

func (*DeclStmt) isStmt()   {}
func (*AssignStmt) isStmt() {}
func (*ForStmt) isStmt()    {}
func (*IfStmt) isStmt()     {}
func (*ReturnStmt) isStmt() {}
func (*ExprStmt) isStmt()   {}

// Expr is an expression node.
type Expr interface{ isExpr() }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a floating literal ("f" suffix selects float).
type FloatLit struct {
	V     float64
	IsF32 bool
}

// IndexExpr is a variable reference with zero or more subscripts.
type IndexExpr struct {
	Base string
	Idxs []Expr
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies unary - or !.
type UnaryExpr struct {
	Op string
	X  Expr
}

// CondExpr is c ? t : f.
type CondExpr struct{ C, T, F Expr }

// CallExpr calls a named function.
type CallExpr struct {
	Name string
	Args []Expr
}

// CastExpr is an explicit C cast.
type CastExpr struct {
	CType string
	X     Expr
}

func (*IntLit) isExpr()     {}
func (*FloatLit) isExpr()   {}
func (*IndexExpr) isExpr()  {}
func (*BinaryExpr) isExpr() {}
func (*UnaryExpr) isExpr()  {}
func (*CondExpr) isExpr()   {}
func (*CallExpr) isExpr()   {}
func (*CastExpr) isExpr()   {}

// paramIndex returns the index of the parameter named name, the last one
// when several share it, or -1.
func (fd *FuncDecl) paramIndex(name string) int {
	for i := len(fd.Params) - 1; i >= 0; i-- {
		if fd.Params[i].Name == name {
			return i
		}
	}
	return -1
}
