// Package ccd implements the Contract Clone Detector: parsing, identifier
// normalization, tokenization, fuzzy-hash fingerprinting, n-gram candidate
// retrieval and the order-independent similarity score of the paper's
// Section 5. CCD detects code clones of Types I-III between incomplete
// snippets and full smart contracts.
package ccd

import (
	"sync"

	"repro/internal/solidity"
	"repro/internal/ssdeep"
)

// Normalization (Section 5.2):
//   - contract names  → "c", library names → "l"
//   - function names  → "f", modifier names → "m"
//   - parameters and variables → their declared type (default "uint")
//   - string literals → "stringLiteral"; numeric constants untouched
//   - visibility and mutability specifiers removed
//
// Tokenization (Section 5.3): state-variable and event declarations are
// skipped; contract and function declarations plus function-level statements
// are divided at symbols.

// NormalizedUnit is the tokenized form of one source unit: contracts holding
// functions holding token streams. It preserves enough structure for the
// fingerprint separators ('.' between functions, ':' between contracts).
type NormalizedUnit struct {
	Contracts []NormalizedContract
}

// NormalizedContract is the token form of one contract.
type NormalizedContract struct {
	// Header tokens ("contract c {") followed by per-function streams.
	Header    []string
	Functions [][]string
}

// Tokens flattens the unit to a single token stream (ablation helper).
func (u NormalizedUnit) Tokens() []string {
	var out []string
	for _, c := range u.Contracts {
		out = append(out, c.Header...)
		for _, f := range c.Functions {
			out = append(out, f...)
		}
	}
	return out
}

// Normalize parses src with the snippet grammar and returns the normalized
// token streams. Orphan functions and statements are normalized as the
// contract solidity.Infer wraps them in, so snippets at any hierarchy level
// normalize uniformly.
func Normalize(src string) (NormalizedUnit, error) {
	unit, err := solidity.Parse(src)
	nu := NormalizeUnit(unit)
	unit.Release()
	return nu, err
}

// NormalizeUnit normalizes an already-parsed unit.
func NormalizeUnit(unit *solidity.SourceUnit) NormalizedUnit {
	var nu NormalizedUnit
	n := normalizers.Get().(*normalizer)
	n.nu = &nu
	n.unit(unit)
	n.done()
	return nu
}

// fingerprintTree fingerprints an already-parsed unit, streaming each
// normalized token into the digest: FingerprintUnit(NormalizeUnit(unit))
// without the token slices.
func fingerprintTree(unit *solidity.SourceUnit) Fingerprint {
	n := normalizers.Get().(*normalizer)
	n.stream = true
	n.unit(unit)
	fp := Fingerprint(n.fp.String())
	n.done()
	return fp
}

// normalizer carries the renaming environment while it emits tokens, either
// straight into the digest fp (stream set) or into the unit nu. It is
// pooled, so its scope stack and digest buffer serve source after source.
type normalizer struct {
	// names is the scope stack, flat: every open scope's declarations in
	// declaration order, innermost last, so a rename searches backwards.
	// marks holds len(names) at each scope's opening.
	names []binding
	marks []int

	stream    bool
	fp        ssdeep.Stream
	contracts int // contracts begun in fp
	funcs     int // functions begun in fp's current contract

	nu *NormalizedUnit
}

type binding struct{ name, repl string }

// normalizers holds normalizers sized for a typical contract: 64 names in
// scope, 16 nested scopes and a 512-character fingerprint.
var normalizers = sync.Pool{New: func() any {
	n := &normalizer{names: make([]binding, 0, 64), marks: make([]int, 0, 16)}
	n.fp.Grow(512)
	return n
}}

// done clears n, so that no name of this source stays reachable, and
// returns it to the pool.
func (n *normalizer) done() {
	clear(n.names[:cap(n.names)])
	n.fp.Reset()
	*n = normalizer{names: n.names[:0], marks: n.marks[:0], fp: n.fp}
	normalizers.Put(n)
}

func (n *normalizer) push() { n.marks = append(n.marks, len(n.names)) }

func (n *normalizer) pop() {
	last := len(n.marks) - 1
	n.names, n.marks = n.names[:n.marks[last]], n.marks[:last]
}

func (n *normalizer) declare(name, repl string) {
	if name != "" {
		n.names = append(n.names, binding{name, repl})
	}
}

func (n *normalizer) rename(name string) (string, bool) {
	for i := len(n.names) - 1; i >= 0; i-- {
		if n.names[i].name == name {
			return n.names[i].repl, true
		}
	}
	return "", false
}

// beginContract opens a contract: a ContractSep before every contract but
// the first in the digest, a header in the unit.
func (n *normalizer) beginContract(kindTok string) {
	if n.stream {
		if n.contracts > 0 {
			n.fp.WriteSeparator(ContractSep)
		}
		n.contracts++
		n.funcs = 0
		return
	}
	n.nu.Contracts = append(n.nu.Contracts, NormalizedContract{Header: []string{"contract", kindTok, "{"}})
}

// beginFunction opens a function or modifier of the current contract: a
// FuncSep before every one but the first in the digest, a token stream in
// the unit.
func (n *normalizer) beginFunction() {
	if n.stream {
		if n.funcs > 0 {
			n.fp.WriteSeparator(FuncSep)
		}
		n.funcs++
		return
	}
	c := &n.nu.Contracts[len(n.nu.Contracts)-1]
	c.Functions = append(c.Functions, nil)
}

func (n *normalizer) emit(toks ...string) {
	for _, tok := range toks {
		if n.stream {
			n.fp.WriteToken(tok)
			continue
		}
		fns := n.nu.Contracts[len(n.nu.Contracts)-1].Functions
		fns[len(fns)-1] = append(fns[len(fns)-1], tok)
	}
}

// typeToken renders the normalized replacement token for a declared type.
func typeToken(t solidity.TypeName) string {
	switch tt := t.(type) {
	case nil:
		return "uint" // missing type declarations default to uint (paper 5.2)
	case *solidity.ElementaryType:
		return tt.Name // "address payable" normalizes to "address"
	case *solidity.UserType:
		return tt.Name
	}
	return solidity.TypeString(t)
}

// unit normalizes every contract of u in order, then the contract that
// solidity.Infer wraps u's orphan parts and statements in.
func (n *normalizer) unit(u *solidity.SourceUnit) {
	parts, stmts := false, false
	for _, d := range u.Decls {
		if c, ok := d.(*solidity.ContractDecl); ok {
			n.contract(c)
			continue
		}
		part, stmt := solidity.Orphan(d)
		parts, stmts = parts || part, stmts || stmt
	}
	if parts || stmts {
		n.orphans(u.Decls, stmts)
	}
}

func (n *normalizer) contract(c *solidity.ContractDecl) {
	kindTok := "c"
	if c.Kind == solidity.KindLibrary {
		kindTok = "l"
	}
	n.beginContract(kindTok)
	n.push()
	n.declare(c.Name, kindTok)
	// First pass: register member renames so uses before declarations
	// resolve (functions, modifiers, state variable types).
	for _, part := range c.Parts {
		n.declarePart(part)
	}
	for _, part := range c.Parts {
		n.part(part)
	}
	n.pop()
}

// orphans normalizes, without building it, the contract solidity.Infer
// wraps a unit's orphans in: the orphan parts in order, then a function
// holding the orphan statements when there are any.
func (n *normalizer) orphans(decls []solidity.Node, stmts bool) {
	n.beginContract("c")
	n.push()
	n.declare(solidity.InferredContractName, "c")
	for _, d := range decls {
		if part, _ := solidity.Orphan(d); part {
			n.declarePart(d)
		}
	}
	if stmts {
		n.declare(solidity.InferredFunctionName, "f")
	}
	for _, d := range decls {
		if part, _ := solidity.Orphan(d); part {
			n.part(d)
		}
	}
	if stmts {
		n.beginFunction()
		n.push()
		n.emit("function", "f", "(", ")", "{")
		n.push()
		for _, d := range decls {
			if _, stmt := solidity.Orphan(d); stmt {
				n.stmt(d.(solidity.Stmt))
			}
		}
		n.pop()
		n.emit("}")
		n.pop()
	}
	n.pop()
}

// declarePart registers the rename a contract part declares.
func (n *normalizer) declarePart(part solidity.Node) {
	switch x := part.(type) {
	case *solidity.FunctionDecl:
		n.declare(x.Name, "f")
	case *solidity.ModifierDecl:
		n.declare(x.Name, "m")
	case *solidity.StateVarDecl:
		n.declare(x.Name, typeToken(x.Type))
	case *solidity.StructDecl:
		n.declare(x.Name, "s")
		// Struct fields are variables: rename by declared type so that
		// member accesses normalize (h.amount → h.uint).
		for _, fld := range x.Fields {
			n.declare(fld.Name, typeToken(fld.Type))
		}
	case *solidity.EnumDecl:
		n.declare(x.Name, "e")
	}
}

// part emits a contract part. State variable and event declarations are
// skipped (Section 5.3).
func (n *normalizer) part(part solidity.Node) {
	switch x := part.(type) {
	case *solidity.FunctionDecl:
		n.function(x)
	case *solidity.ModifierDecl:
		n.modifier(x)
	}
}

func (n *normalizer) function(f *solidity.FunctionDecl) {
	n.beginFunction()
	n.push()
	defer n.pop()
	switch {
	case f.IsConstructor:
		n.emit("constructor")
	case f.IsReceive:
		n.emit("receive")
	default:
		n.emit("function", "f")
	}
	n.emit("(")
	for i, p := range f.Params {
		if i > 0 {
			n.emit(",")
		}
		tt := typeToken(p.Type)
		n.declare(p.Name, tt)
		n.emit(tt)
	}
	n.emit(")")
	// Visibility/mutability dropped. Modifier applications normalize to m.
	for range f.Modifiers {
		n.emit("m")
	}
	if len(f.Returns) > 0 {
		n.emit("returns", "(")
		for i, p := range f.Returns {
			if i > 0 {
				n.emit(",")
			}
			tt := typeToken(p.Type)
			n.declare(p.Name, tt)
			n.emit(tt)
		}
		n.emit(")")
	}
	if f.Body != nil {
		n.block(f.Body)
	}
}

func (n *normalizer) modifier(m *solidity.ModifierDecl) {
	n.beginFunction()
	n.push()
	defer n.pop()
	n.emit("modifier", "m", "(")
	for i, p := range m.Params {
		if i > 0 {
			n.emit(",")
		}
		tt := typeToken(p.Type)
		n.declare(p.Name, tt)
		n.emit(tt)
	}
	n.emit(")")
	if m.Body != nil {
		n.block(m.Body)
	}
}

func (n *normalizer) block(b *solidity.Block) {
	n.emit("{")
	n.push()
	for _, s := range b.Stmts {
		n.stmt(s)
	}
	n.pop()
	n.emit("}")
}

func (n *normalizer) stmt(s solidity.Stmt) {
	switch x := s.(type) {
	case nil:
	case *solidity.Block:
		n.block(x)
	case *solidity.ExprStmt:
		n.expr(x.X)
		n.emit(";")
	case *solidity.VarDeclStmt:
		for i, d := range x.Decls {
			if i > 0 {
				n.emit(",")
			}
			if d == nil {
				continue
			}
			tt := typeToken(d.Type)
			n.declare(d.Name, tt)
			n.emit(tt)
		}
		if x.Value != nil {
			n.emit("=")
			n.expr(x.Value)
		}
		n.emit(";")
	case *solidity.IfStmt:
		n.emit("if", "(")
		n.expr(x.Cond)
		n.emit(")")
		n.stmt(x.Then)
		if x.Else != nil {
			n.emit("else")
			n.stmt(x.Else)
		}
	case *solidity.ForStmt:
		n.emit("for", "(")
		n.push()
		n.stmt(x.Init)
		n.expr(x.Cond)
		n.emit(";")
		n.expr(x.Post)
		n.emit(")")
		n.stmt(x.Body)
		n.pop()
	case *solidity.WhileStmt:
		n.emit("while", "(")
		n.expr(x.Cond)
		n.emit(")")
		n.stmt(x.Body)
	case *solidity.DoWhileStmt:
		n.emit("do")
		n.stmt(x.Body)
		n.emit("while", "(")
		n.expr(x.Cond)
		n.emit(")", ";")
	case *solidity.ReturnStmt:
		n.emit("return")
		if x.Value != nil {
			n.expr(x.Value)
		}
		n.emit(";")
	case *solidity.BreakStmt:
		n.emit("break", ";")
	case *solidity.ContinueStmt:
		n.emit("continue", ";")
	case *solidity.ThrowStmt:
		n.emit("throw", ";")
	case *solidity.EmitStmt:
		n.emit("emit")
		n.expr(x.Call)
		n.emit(";")
	case *solidity.DeleteStmt:
		n.emit("delete")
		n.expr(x.X)
		n.emit(";")
	case *solidity.PlaceholderStmt:
		n.emit("_", ";")
	case *solidity.AssemblyStmt:
		n.emit("assembly", "{", "}")
	case *solidity.UncheckedBlock:
		if x.Body != nil {
			n.block(x.Body)
		}
	case *solidity.TryStmt:
		n.emit("try")
		n.expr(x.Call)
		if x.Body != nil {
			n.block(x.Body)
		}
		for _, cc := range x.Catches {
			n.emit("catch")
			if cc.Body != nil {
				n.block(cc.Body)
			}
		}
	}
}

func (n *normalizer) expr(e solidity.Expr) {
	switch x := e.(type) {
	case nil:
	case *solidity.Ident:
		if r, ok := n.rename(x.Name); ok {
			n.emit(r)
		} else {
			n.emit(x.Name)
		}
	case *solidity.NumberLit:
		// Numeric constants are preserved: differences can decide whether a
		// contract is vulnerable (Section 5.2).
		n.emit(x.Value)
		if x.Unit != "" {
			n.emit(x.Unit)
		}
	case *solidity.StringLit:
		n.emit("stringLiteral")
	case *solidity.BoolLit:
		if x.Value {
			n.emit("true")
		} else {
			n.emit("false")
		}
	case *solidity.MemberAccess:
		n.expr(x.X)
		n.emit(".")
		if r, ok := n.rename(x.Member); ok {
			n.emit(r)
		} else {
			n.emit(x.Member)
		}
	case *solidity.IndexAccess:
		n.expr(x.X)
		n.emit("[")
		n.expr(x.Index)
		n.emit("]")
	case *solidity.CallExpr:
		n.expr(x.Callee)
		if len(x.Options) > 0 {
			n.emit("{")
			for i, o := range x.Options {
				if i > 0 {
					n.emit(",")
				}
				n.emit(o.Key, ":")
				n.expr(o.Value)
			}
			n.emit("}")
		}
		n.emit("(")
		for i, a := range x.Args {
			if i > 0 {
				n.emit(",")
			}
			n.expr(a)
		}
		n.emit(")")
	case *solidity.NewExpr:
		n.emit("new")
		n.emitType(x.Type)
	case *solidity.TypeExpr:
		n.emitType(x.Type)
	case *solidity.BinaryExpr:
		n.expr(x.LHS)
		n.emit(x.Op.String())
		n.expr(x.RHS)
	case *solidity.UnaryExpr:
		if x.Prefix {
			n.emit(x.Op.String())
			n.expr(x.X)
		} else {
			n.expr(x.X)
			n.emit(x.Op.String())
		}
	case *solidity.ConditionalExpr:
		n.expr(x.Cond)
		n.emit("?")
		n.expr(x.Then)
		n.emit(":")
		n.expr(x.Else)
	case *solidity.TupleExpr:
		n.emit("(")
		for i, el := range x.Elems {
			if i > 0 {
				n.emit(",")
			}
			n.expr(el)
		}
		n.emit(")")
	}
}

func (n *normalizer) emitType(t solidity.TypeName) {
	name := typeToken(t)
	if r, ok := n.rename(name); ok {
		n.emit(r)
		return
	}
	n.emit(name)
}
