package baseline

import (
	"math"

	"repro/internal/solidity"
)

// SmartEmbed is the structural-code-embedding clone detector stand-in
// (Gao et al., ICSME 2019): a contract is embedded as a bag of structural
// features — AST parent→child label pairs plus normalized leaf tokens — and
// two contracts are clones when the cosine similarity of their embeddings
// reaches the threshold (0.9 as recommended by the authors).
//
// Like the original, it requires complete code: snippets that the standard
// grammar rejects yield ErrNotCompilable.
type SmartEmbed struct {
	// Threshold is the cosine similarity cut-off (default 0.9).
	Threshold float64
}

// NewSmartEmbed returns the detector at the recommended threshold.
func NewSmartEmbed() *SmartEmbed { return &SmartEmbed{Threshold: 0.9} }

// Embedding is a sparse feature-count vector with its Euclidean norm.
type Embedding struct {
	counts map[string]float64
	norm   float64
}

// Embed parses src with the standard grammar and computes its embedding.
func (se *SmartEmbed) Embed(src string) (Embedding, error) {
	unit, err := solidity.ParseStrict(src)
	if err != nil {
		return Embedding{}, ErrNotCompilable
	}
	counts := make(map[string]float64)
	var walk func(n solidity.Node, parent string)
	walk = func(n solidity.Node, parent string) {
		pl := nodeLabel(n)
		counts["node:"+pl]++
		if leaf := leafToken(n); leaf != "" {
			counts["leaf:"+leaf]++
		}
		for _, c := range solidity.Children(n) {
			cl := nodeLabel(c)
			counts["edge:"+pl+">"+cl]++
			// Path bigrams sharpen the distribution enough to separate
			// structurally different programs sharing node vocabulary.
			counts["path:"+parent+">"+pl+">"+cl]++
			walk(c, pl)
		}
	}
	walk(unit, "^")
	// Sub-linear damping: without it the cosine is dominated by the few
	// very frequent structural features and saturates near 1 for any two
	// contracts of similar size.
	var norm float64
	for k, v := range counts {
		d := math.Sqrt(v)
		counts[k] = d
		norm += d * d
	}
	return Embedding{counts: counts, norm: math.Sqrt(norm)}, nil
}

// Cosine returns the cosine similarity of two embeddings in [0,1].
func Cosine(a, b Embedding) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	small, large := a, b
	if len(small.counts) > len(large.counts) {
		small, large = large, small
	}
	dot := 0.0
	for k, v := range small.counts {
		dot += v * large.counts[k]
	}
	return dot / (a.norm * b.norm)
}

// IsClone reports whether the two embeddings exceed the threshold.
func (se *SmartEmbed) IsClone(a, b Embedding) (float64, bool) {
	s := Cosine(a, b)
	return s, s >= se.Threshold
}

func nodeLabel(n solidity.Node) string {
	switch x := n.(type) {
	case *solidity.SourceUnit:
		return "SourceUnit"
	case *solidity.ContractDecl:
		return "Contract"
	case *solidity.FunctionDecl:
		if x.IsConstructor {
			return "Constructor"
		}
		return "Function"
	case *solidity.ModifierDecl:
		return "Modifier"
	case *solidity.StateVarDecl:
		return "StateVar"
	case *solidity.EventDecl:
		return "Event"
	case *solidity.StructDecl:
		return "Struct"
	case *solidity.EnumDecl:
		return "Enum"
	case *solidity.Param:
		return "Param"
	case *solidity.Block:
		return "Block"
	case *solidity.ExprStmt:
		return "ExprStmt"
	case *solidity.VarDeclStmt:
		return "VarDecl"
	case *solidity.IfStmt:
		return "If"
	case *solidity.ForStmt:
		return "For"
	case *solidity.WhileStmt:
		return "While"
	case *solidity.DoWhileStmt:
		return "DoWhile"
	case *solidity.ReturnStmt:
		return "Return"
	case *solidity.EmitStmt:
		return "Emit"
	case *solidity.ThrowStmt:
		return "Throw"
	case *solidity.CallExpr:
		return "Call"
	case *solidity.MemberAccess:
		return "Member"
	case *solidity.IndexAccess:
		return "Index"
	case *solidity.BinaryExpr:
		return "Bin" + x.Op.String()
	case *solidity.UnaryExpr:
		return "Un" + x.Op.String()
	case *solidity.Ident:
		return "Ident"
	case *solidity.NumberLit, *solidity.StringLit, *solidity.BoolLit:
		return "Literal"
	case *solidity.TupleExpr:
		return "Tuple"
	case *solidity.ConditionalExpr:
		return "Ternary"
	case *solidity.NewExpr:
		return "New"
	case *solidity.TypeExpr:
		return "Type"
	case *solidity.MappingType:
		return "Mapping"
	case *solidity.ArrayType:
		return "Array"
	case *solidity.ElementaryType:
		return "T:" + x.Name
	case *solidity.UserType:
		return "UserType"
	}
	return "Node"
}

// leafToken extracts identifier-like leaves: member names (they carry
// semantics like transfer/call), numeric literals and plain identifiers.
// Like the original SmartEmbed, which embeds normalized token streams, the
// embedding is sensitive to the identifier vocabulary of the code.
func leafToken(n solidity.Node) string {
	switch x := n.(type) {
	case *solidity.MemberAccess:
		return x.Member
	case *solidity.NumberLit:
		return x.Value
	case *solidity.Ident:
		return x.Name
	}
	return ""
}
