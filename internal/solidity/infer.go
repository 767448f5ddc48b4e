package solidity

// Declaration inference for snippets: when the outer contract or function
// declarations are missing, the frontend complements the AST with inferred
// declarations (Section 4.2 of the paper).

// SnippetShape classifies what a parsed snippet contains at its top level.
type SnippetShape int

// Snippet shapes (Table 4 discussion: 54.2% contracts, 38% functions,
// 7.8% statements).
const (
	ShapeEmpty SnippetShape = iota
	ShapeContract
	ShapeFunction
	ShapeStatements
)

func (s SnippetShape) String() string {
	switch s {
	case ShapeContract:
		return "contract"
	case ShapeFunction:
		return "function"
	case ShapeStatements:
		return "statements"
	}
	return "empty"
}

// Shape returns the dominant top-level shape of the source unit.
func Shape(u *SourceUnit) SnippetShape {
	shape := ShapeEmpty
	for _, d := range u.Decls {
		switch d.(type) {
		case *ContractDecl:
			return ShapeContract
		case *FunctionDecl, *ModifierDecl:
			if shape != ShapeContract {
				shape = ShapeFunction
			}
		case *StateVarDecl, *EventDecl, *StructDecl, *EnumDecl, *UsingDecl:
			if shape == ShapeEmpty {
				shape = ShapeStatements
			}
		case Stmt:
			if shape == ShapeEmpty {
				shape = ShapeStatements
			}
		}
	}
	return shape
}

// InferredContractName and InferredFunctionName are the names given to
// synthesized wrapper declarations.
const (
	InferredContractName = "__snippet_contract"
	InferredFunctionName = "__snippet_fn"
)

// Orphan classifies a top-level declaration the way Infer wraps it: part
// reports a contract part (a function, modifier, state variable, event,
// struct, enum or using directive), which goes into the inferred contract,
// and stmt a statement, which goes into the inferred function. Anything
// else, a contract included, stays where it is.
func Orphan(d Node) (part, stmt bool) {
	switch d.(type) {
	case *ContractDecl:
		return false, false
	case *FunctionDecl, *ModifierDecl, *StateVarDecl, *EventDecl,
		*StructDecl, *EnumDecl, *UsingDecl:
		return true, false
	case Stmt:
		return false, true
	}
	return false, false
}

// Infer returns a source unit where orphan top-level functions, contract
// parts and statements are wrapped in inferred contract/function
// declarations so that downstream passes can assume a regular hierarchy.
// Units that are already fully regular are returned unchanged.
func Infer(u *SourceUnit) *SourceUnit {
	var regular []Node
	var parts []Node // orphan contract parts
	var stmts []Stmt // orphan statements
	for _, d := range u.Decls {
		switch part, stmt := Orphan(d); {
		case part:
			parts = append(parts, d)
		case stmt:
			stmts = append(stmts, d.(Stmt))
		default:
			regular = append(regular, d)
		}
	}
	if len(parts) == 0 && len(stmts) == 0 {
		return u
	}
	if len(stmts) > 0 {
		body := &Block{Stmts: stmts}
		if len(stmts) > 0 {
			body.Span = Span{StartPos: stmts[0].Pos(), EndPos: stmts[len(stmts)-1].End()}
		}
		fn := &FunctionDecl{
			Span:     body.Span,
			Name:     InferredFunctionName,
			Body:     body,
			Inferred: true,
		}
		parts = append(parts, fn)
	}
	wrapper := &ContractDecl{
		Span:     u.Span,
		Name:     InferredContractName,
		Parts:    parts,
		Inferred: true,
	}
	out := &SourceUnit{
		Span:    u.Span,
		Pragmas: u.Pragmas,
		Imports: u.Imports,
		Decls:   append(regular, wrapper),
	}
	return out
}
