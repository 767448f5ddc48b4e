package solidity

import (
	"strings"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() Position
	End() Position
}

// Span is embedded in every node to record its source extent.
type Span struct {
	StartPos Position
	EndPos   Position
}

// Pos returns the start of the node.
func (s *Span) Pos() Position { return s.StartPos }

// End returns the position just past the node.
func (s *Span) End() Position { return s.EndPos }

// ---------------------------------------------------------------------------
// Source unit
// ---------------------------------------------------------------------------

// SourceUnit is the root of a parsed file or snippet. Thanks to the fuzzy
// grammar, Decls may directly contain functions, statements or expressions
// that would normally be nested inside contracts.
type SourceUnit struct {
	Span
	Pragmas []*PragmaDirective
	Imports []*ImportDirective
	Decls   []Node // *ContractDecl, *FunctionDecl, *StateVarDecl, Stmt, ...

	arena *arena // the tree's memory, nil once released
}

// PragmaDirective is `pragma solidity ^0.8.0;` and friends.
type PragmaDirective struct {
	Span
	Name  string
	Value string
}

// ImportDirective is an import statement (path only; symbol lists ignored).
type ImportDirective struct {
	Span
	Path string
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// ContractKind distinguishes contract/interface/library declarations.
type ContractKind int

// Contract kinds.
const (
	KindContract ContractKind = iota
	KindInterface
	KindLibrary
)

func (k ContractKind) String() string {
	switch k {
	case KindInterface:
		return "interface"
	case KindLibrary:
		return "library"
	default:
		return "contract"
	}
}

// ContractDecl is a contract, interface or library declaration.
type ContractDecl struct {
	Span
	Kind     ContractKind
	Abstract bool
	Name     string
	Bases    []string // inheritance list
	Parts    []Node   // functions, state vars, modifiers, events, structs, enums, usings
	// Inferred marks declarations synthesized by the parser to wrap orphan
	// snippet-level functions/statements.
	Inferred bool
}

// StateVarDecl is a contract-level variable declaration.
type StateVarDecl struct {
	Span
	Type       TypeName
	Name       string
	Visibility string // public/private/internal/"" etc.
	Constant   bool
	Immutable  bool
	Value      Expr // optional initializer
}

// Param is a function/event/struct parameter or field.
type Param struct {
	Span
	Type    TypeName
	Name    string
	Storage string // memory/storage/calldata/""
	Indexed bool
}

// FunctionDecl is a function, constructor, fallback or receive declaration.
type FunctionDecl struct {
	Span
	Name          string // empty for default (fallback) functions
	IsConstructor bool
	IsFallback    bool // unnamed `function()` or `fallback()`
	IsReceive     bool
	Params        []*Param
	Returns       []*Param
	Modifiers     []*ModifierInvocation
	Visibility    string
	Mutability    string // pure/view/payable/constant/""
	Virtual       bool
	Override      bool
	Body          *Block // nil for unimplemented (interface) functions
	// Inferred marks functions synthesized by the parser to wrap orphan
	// snippet-level statements.
	Inferred bool
}

// Header returns the function signature text up to the body, used by
// queries that inspect `split(f.code,'{')[0]` in the paper.
func (f *FunctionDecl) Header() string {
	var sb strings.Builder
	switch {
	case f.IsConstructor:
		sb.WriteString("constructor")
	case f.IsReceive:
		sb.WriteString("receive")
	default:
		sb.WriteString("function")
		if f.Name != "" {
			sb.WriteString(" " + f.Name)
		}
	}
	sb.WriteString("(")
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(TypeString(p.Type))
		if p.Name != "" {
			sb.WriteString(" " + p.Name)
		}
	}
	sb.WriteString(")")
	if f.Visibility != "" {
		sb.WriteString(" " + f.Visibility)
	}
	if f.Mutability != "" {
		sb.WriteString(" " + f.Mutability)
	}
	for _, m := range f.Modifiers {
		sb.WriteString(" " + m.Name)
	}
	return sb.String()
}

// ModifierInvocation is the application of a modifier (or base constructor)
// in a function header.
type ModifierInvocation struct {
	Span
	Name string
	Args []Expr
}

// ModifierDecl declares a function modifier.
type ModifierDecl struct {
	Span
	Name   string
	Params []*Param
	Body   *Block
}

// EventDecl declares an event.
type EventDecl struct {
	Span
	Name      string
	Params    []*Param
	Anonymous bool
}

// StructDecl declares a struct type.
type StructDecl struct {
	Span
	Name   string
	Fields []*Param
}

// EnumDecl declares an enum type.
type EnumDecl struct {
	Span
	Name    string
	Members []string
}

// UsingDecl is `using L for T;`.
type UsingDecl struct {
	Span
	Library string
	Target  TypeName // nil for `*`
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

// TypeName is implemented by all type AST nodes.
type TypeName interface {
	Node
	typeName()
}

// ElementaryType is a built-in type such as uint256 or address.
type ElementaryType struct {
	Span
	Name    string
	Payable bool // address payable
}

func (*ElementaryType) typeName() {}

// UserType is a user-defined type reference, possibly qualified (A.B).
type UserType struct {
	Span
	Name string
}

func (*UserType) typeName() {}

// MappingType is mapping(K => V).
type MappingType struct {
	Span
	Key   TypeName
	Value TypeName
}

func (*MappingType) typeName() {}

// ArrayType is T[] or T[n].
type ArrayType struct {
	Span
	Elem   TypeName
	Length Expr // nil for dynamic arrays
}

func (*ArrayType) typeName() {}

// FunctionType is a function type used as a variable type.
type FunctionType struct {
	Span
	Params  []*Param
	Returns []*Param
}

func (*FunctionType) typeName() {}

// TypeString renders a type canonically ("uint256", "mapping(address => uint)").
func TypeString(t TypeName) string {
	switch tt := t.(type) {
	case nil:
		return ""
	case *ElementaryType:
		if tt.Payable {
			return tt.Name + " payable"
		}
		return tt.Name
	case *UserType:
		return tt.Name
	case *MappingType:
		return "mapping(" + TypeString(tt.Key) + " => " + TypeString(tt.Value) + ")"
	case *ArrayType:
		if tt.Length != nil {
			return TypeString(tt.Elem) + "[" + ExprString(tt.Length) + "]"
		}
		return TypeString(tt.Elem) + "[]"
	case *FunctionType:
		// Print the parameter parens even when empty: a bare `function`
		// token in statement position re-parses as a function declaration,
		// not a type expression.
		var params, returns []string
		for _, p := range tt.Params {
			params = append(params, TypeString(p.Type))
		}
		s := "function (" + strings.Join(params, ", ") + ")"
		for _, r := range tt.Returns {
			returns = append(returns, TypeString(r.Type))
		}
		if len(returns) > 0 {
			s += " returns (" + strings.Join(returns, ", ") + ")"
		}
		return s
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// Block is `{ ... }`.
type Block struct {
	Span
	Stmts []Stmt
}

func (*Block) stmt() {}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	Span
	X Expr
}

func (*ExprStmt) stmt() {}

// VarDecl is a single declared local variable within a VarDeclStmt.
type VarDecl struct {
	Span
	Type    TypeName // nil in tuple positions without type, or `var`
	Name    string
	Storage string
}

// VarDeclStmt is a local variable declaration, possibly a tuple
// `(uint a, uint b) = f();`.
type VarDeclStmt struct {
	Span
	Decls []*VarDecl // nil entries for skipped tuple slots
	Value Expr       // optional initializer
}

func (*VarDeclStmt) stmt() {}

// IfStmt is an if/else statement.
type IfStmt struct {
	Span
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

func (*IfStmt) stmt() {}

// ForStmt is a for loop.
type ForStmt struct {
	Span
	Init Stmt // nil, VarDeclStmt or ExprStmt
	Cond Expr // nil if absent
	Post Expr // nil if absent
	Body Stmt
}

func (*ForStmt) stmt() {}

// WhileStmt is a while loop.
type WhileStmt struct {
	Span
	Cond Expr
	Body Stmt
}

func (*WhileStmt) stmt() {}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	Span
	Body Stmt
	Cond Expr
}

func (*DoWhileStmt) stmt() {}

// ReturnStmt is a return statement.
type ReturnStmt struct {
	Span
	Value Expr // nil if absent
}

func (*ReturnStmt) stmt() {}

// BreakStmt is a break statement.
type BreakStmt struct{ Span }

func (*BreakStmt) stmt() {}

// ContinueStmt is a continue statement.
type ContinueStmt struct{ Span }

func (*ContinueStmt) stmt() {}

// ThrowStmt is the legacy `throw;` (always rolls back).
type ThrowStmt struct{ Span }

func (*ThrowStmt) stmt() {}

// EmitStmt is `emit Event(...)`.
type EmitStmt struct {
	Span
	Call *CallExpr
}

func (*EmitStmt) stmt() {}

// DeleteStmt is `delete x;`.
type DeleteStmt struct {
	Span
	X Expr
}

func (*DeleteStmt) stmt() {}

// PlaceholderStmt is the `_;` inside a modifier body.
type PlaceholderStmt struct{ Span }

func (*PlaceholderStmt) stmt() {}

// AssemblyStmt is an inline assembly block; the body is kept as raw text
// (only 3.6% of snippets contain assembly per the paper, so it is not
// modeled further).
type AssemblyStmt struct {
	Span
	Raw string
}

func (*AssemblyStmt) stmt() {}

// UncheckedBlock is `unchecked { ... }` (Solidity >= 0.8).
type UncheckedBlock struct {
	Span
	Body *Block
}

func (*UncheckedBlock) stmt() {}

// TryStmt is try/catch over an external call.
type TryStmt struct {
	Span
	Call    Expr
	Returns []*Param
	Body    *Block
	Catches []*CatchClause
}

func (*TryStmt) stmt() {}

// CatchClause is one catch arm of a try statement.
type CatchClause struct {
	Span
	Ident  string
	Params []*Param
	Body   *Block
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// Ident is an identifier reference.
type Ident struct {
	Span
	Name string
}

func (*Ident) expr() {}

// NumberLit is a numeric literal with an optional denomination unit.
type NumberLit struct {
	Span
	Value string
	Unit  string // ether/wei/days/... or ""
}

func (*NumberLit) expr() {}

// escapeStringLit renders a decoded string value back into double-quoted
// literal syntax, inverting exactly the escapes the lexer understands —
// embedded quotes, backslashes, newlines (which would otherwise terminate
// the literal), tabs, carriage returns and NUL.
func escapeStringLit(v string) string {
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case 0:
			sb.WriteString(`\0`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// StringLit is a string literal.
type StringLit struct {
	Span
	Value string
	Hex   bool
}

func (*StringLit) expr() {}

// BoolLit is true/false.
type BoolLit struct {
	Span
	Value bool
}

func (*BoolLit) expr() {}

// MemberAccess is `x.member`.
type MemberAccess struct {
	Span
	X      Expr
	Member string
}

func (*MemberAccess) expr() {}

// IndexAccess is `x[i]` (Index nil for `x[]` in type contexts).
type IndexAccess struct {
	Span
	X     Expr
	Index Expr
}

func (*IndexAccess) expr() {}

// CallOption is a {key: value} call option such as value or gas.
type CallOption struct {
	Span
	Key   string
	Value Expr
}

// CallExpr is a call `f(args)` with optional named arguments and
// {value:..., gas:...} options.
type CallExpr struct {
	Span
	Callee   Expr
	Args     []Expr
	ArgNames []string // parallel to Args when named-argument syntax used; nil otherwise
	Options  []*CallOption
}

func (*CallExpr) expr() {}

// NewExpr is `new T`.
type NewExpr struct {
	Span
	Type TypeName
}

func (*NewExpr) expr() {}

// TypeExpr wraps a type used in expression position, e.g. the callee of the
// cast `address(x)` or `uint256` in `type(uint256).max`.
type TypeExpr struct {
	Span
	Type TypeName
}

func (*TypeExpr) expr() {}

// BinaryExpr covers arithmetic/logical/comparison operators and all
// assignment operators (Op is the token kind).
type BinaryExpr struct {
	Span
	Op  Kind
	LHS Expr
	RHS Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr is a prefix or postfix unary operation.
type UnaryExpr struct {
	Span
	Op     Kind
	Prefix bool
	X      Expr
}

func (*UnaryExpr) expr() {}

// ConditionalExpr is `c ? a : b`.
type ConditionalExpr struct {
	Span
	Cond Expr
	Then Expr
	Else Expr
}

func (*ConditionalExpr) expr() {}

// TupleExpr is `(a, b)`; single-element tuples are parenthesized exprs.
type TupleExpr struct {
	Span
	Elems []Expr // nil entries for skipped slots
}

func (*TupleExpr) expr() {}

// ---------------------------------------------------------------------------
// Canonical printing
// ---------------------------------------------------------------------------

// ExprString renders an expression canonically with minimal whitespace, e.g.
// `msg.sender`, `balances[msg.sender] += amount`. The CPG uses this as the
// `code` property of expression nodes, matching the paper's query literals.
func ExprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *Ident:
		sb.WriteString(x.Name)
	case *NumberLit:
		sb.WriteString(x.Value)
		if x.Unit != "" {
			sb.WriteString(" " + x.Unit)
		}
	case *StringLit:
		sb.WriteString("\"")
		sb.WriteString(escapeStringLit(x.Value))
		sb.WriteString("\"")
	case *BoolLit:
		if x.Value {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *MemberAccess:
		writeExpr(sb, x.X)
		sb.WriteString(".")
		sb.WriteString(x.Member)
	case *IndexAccess:
		writeExpr(sb, x.X)
		sb.WriteString("[")
		writeExpr(sb, x.Index)
		sb.WriteString("]")
	case *CallExpr:
		writeExpr(sb, x.Callee)
		if len(x.Options) > 0 {
			sb.WriteString("{")
			for i, o := range x.Options {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(o.Key + ": ")
				writeExpr(sb, o.Value)
			}
			sb.WriteString("}")
		}
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			if x.ArgNames != nil && i < len(x.ArgNames) && x.ArgNames[i] != "" {
				sb.WriteString(x.ArgNames[i] + ": ")
			}
			writeExpr(sb, a)
		}
		sb.WriteString(")")
	case *NewExpr:
		sb.WriteString("new " + TypeString(x.Type))
	case *TypeExpr:
		sb.WriteString(TypeString(x.Type))
	case *BinaryExpr:
		writeExpr(sb, x.LHS)
		sb.WriteString(" " + x.Op.String() + " ")
		writeExpr(sb, x.RHS)
	case *UnaryExpr:
		if x.Prefix {
			sb.WriteString(x.Op.String())
			writeExpr(sb, x.X)
		} else {
			writeExpr(sb, x.X)
			sb.WriteString(x.Op.String())
		}
	case *ConditionalExpr:
		writeExpr(sb, x.Cond)
		sb.WriteString(" ? ")
		writeExpr(sb, x.Then)
		sb.WriteString(" : ")
		writeExpr(sb, x.Else)
	case *TupleExpr:
		sb.WriteString("(")
		for i, el := range x.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, el)
		}
		sb.WriteString(")")
	}
}

// Walk traverses the AST rooted at n in depth-first order, calling fn for
// each node. If fn returns false the subtree below the node is skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || isNilNode(n) {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range Children(n) {
		Walk(c, fn)
	}
}

func isNilNode(n Node) bool {
	switch v := n.(type) {
	case *SourceUnit:
		return v == nil
	case *ContractDecl:
		return v == nil
	case *FunctionDecl:
		return v == nil
	case *Block:
		return v == nil
	}
	return false
}

// Children returns the direct child nodes of n.
func Children(n Node) []Node {
	var out []Node
	add := func(c Node) {
		switch v := c.(type) {
		case nil:
		case Expr:
			if v != nil {
				out = append(out, v)
			}
		default:
			out = append(out, c)
		}
	}
	switch x := n.(type) {
	case *SourceUnit:
		for _, d := range x.Decls {
			add(d)
		}
	case *ContractDecl:
		for _, p := range x.Parts {
			add(p)
		}
	case *StateVarDecl:
		if x.Type != nil {
			add(x.Type)
		}
		if x.Value != nil {
			add(x.Value)
		}
	case *FunctionDecl:
		for _, p := range x.Params {
			add(p)
		}
		for _, p := range x.Returns {
			add(p)
		}
		for _, m := range x.Modifiers {
			add(m)
		}
		if x.Body != nil {
			add(x.Body)
		}
	case *Param:
		if x.Type != nil {
			add(x.Type)
		}
	case *ModifierInvocation:
		for _, a := range x.Args {
			add(a)
		}
	case *ModifierDecl:
		for _, p := range x.Params {
			add(p)
		}
		if x.Body != nil {
			add(x.Body)
		}
	case *EventDecl:
		for _, p := range x.Params {
			add(p)
		}
	case *StructDecl:
		for _, f := range x.Fields {
			add(f)
		}
	case *UsingDecl:
		if x.Target != nil {
			add(x.Target)
		}
	case *MappingType:
		add(x.Key)
		add(x.Value)
	case *ArrayType:
		add(x.Elem)
		if x.Length != nil {
			add(x.Length)
		}
	case *FunctionType:
		for _, p := range x.Params {
			add(p)
		}
		for _, p := range x.Returns {
			add(p)
		}
	case *Block:
		for _, s := range x.Stmts {
			add(s)
		}
	case *ExprStmt:
		add(x.X)
	case *VarDeclStmt:
		for _, d := range x.Decls {
			if d != nil {
				add(d)
			}
		}
		if x.Value != nil {
			add(x.Value)
		}
	case *VarDecl:
		if x.Type != nil {
			add(x.Type)
		}
	case *IfStmt:
		add(x.Cond)
		add(x.Then)
		if x.Else != nil {
			add(x.Else)
		}
	case *ForStmt:
		if x.Init != nil {
			add(x.Init)
		}
		if x.Cond != nil {
			add(x.Cond)
		}
		if x.Post != nil {
			add(x.Post)
		}
		add(x.Body)
	case *WhileStmt:
		add(x.Cond)
		add(x.Body)
	case *DoWhileStmt:
		add(x.Body)
		add(x.Cond)
	case *ReturnStmt:
		if x.Value != nil {
			add(x.Value)
		}
	case *EmitStmt:
		add(x.Call)
	case *DeleteStmt:
		add(x.X)
	case *UncheckedBlock:
		add(x.Body)
	case *TryStmt:
		add(x.Call)
		for _, p := range x.Returns {
			add(p)
		}
		add(x.Body)
		for _, c := range x.Catches {
			add(c)
		}
	case *CatchClause:
		for _, p := range x.Params {
			add(p)
		}
		add(x.Body)
	case *MemberAccess:
		add(x.X)
	case *IndexAccess:
		add(x.X)
		if x.Index != nil {
			add(x.Index)
		}
	case *CallExpr:
		add(x.Callee)
		for _, o := range x.Options {
			add(o.Value)
		}
		for _, a := range x.Args {
			add(a)
		}
	case *NewExpr:
		add(x.Type)
	case *TypeExpr:
		add(x.Type)
	case *BinaryExpr:
		add(x.LHS)
		add(x.RHS)
	case *UnaryExpr:
		add(x.X)
	case *ConditionalExpr:
		add(x.Cond)
		add(x.Then)
		add(x.Else)
	case *TupleExpr:
		for _, e := range x.Elems {
			if e != nil {
				add(e)
			}
		}
	}
	return out
}
