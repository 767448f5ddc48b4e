// Package cpg builds a Code Property Graph from Solidity ASTs.
//
// A CPG is a directed attributed graph whose nodes embody syntactic elements
// and whose edges carry program semantics. This package reproduces the graph
// layers the paper's CCC tool relies on:
//
//   - Syntax: AST edges forming the structural backbone.
//   - Order: Evaluation Order Graph (EOG) edges modeling control flow and
//     evaluation order (operands before operators).
//   - Data flow: DFG edges describing how values propagate, routed through
//     variable declarations (writes flow into declarations, declarations
//     flow into reads).
//
// Additional edge kinds cover reference resolution (REFERS_TO), call targets
// (INVOKES/RETURNS) and fine-grained structure (LHS, RHS, CONDITION,
// ARGUMENTS, BASE, CALLEE, ...). Solidity-specific node labels added by the
// paper — most importantly Rollback for transaction-reverting control flow —
// are reproduced as well.
package cpg

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/solidity"
)

// Label classifies a node. Nodes may carry several labels (e.g. a
// ParamVariableDeclaration is also a VariableDeclaration). The vocabulary is
// closed: a node keeps its labels as one bit set.
type Label uint8

// Node labels mirroring the CPG library vocabulary used by the paper's
// queries.
const (
	LTranslationUnit Label = iota
	LRecordDeclaration
	LFieldDeclaration
	LFunctionDeclaration
	LConstructorDecl
	LModifierDeclaration
	LEventDeclaration
	LParamVariableDecl
	LVariableDeclaration
	LDeclaredReference
	LMemberExpression
	LCallExpression
	LBinaryOperator
	LUnaryOperator
	LLiteral
	LReturnStatement
	LIfStatement
	LForStatement
	LForEachStatement
	LWhileStatement
	LDoStatement
	LBlock
	LRollback
	LEmitStatement
	LSpecifiedExpression
	LKeyValueExpression
	LSubscriptExpression
	LConditionalExpression
	LNewExpression
	LTypeExpression
	LTupleExpression
	LAssemblyStatement
	LBreakStatement
	LContinueStatement
	LTypeNode
	LObjectType
	numLabels
)

// A node's labels are one uint64: the vocabulary must stay within 64 labels.
var _ [64 - numLabels]struct{}

var labelNames = [numLabels]string{
	"TranslationUnit", "RecordDeclaration", "FieldDeclaration",
	"FunctionDeclaration", "ConstructorDeclaration", "ModifierDeclaration",
	"EventDeclaration", "ParamVariableDeclaration", "VariableDeclaration",
	"DeclaredReferenceExpression", "MemberExpression", "CallExpression",
	"BinaryOperator", "UnaryOperator", "Literal", "ReturnStatement",
	"IfStatement", "ForStatement", "ForEachStatement", "WhileStatement",
	"DoStatement", "Block", "Rollback", "EmitStatement",
	"SpecifiedExpression", "KeyValueExpression", "SubscriptExpression",
	"ConditionalExpression", "NewExpression", "TypeExpression",
	"TupleExpression", "AssemblyStatement", "BreakStatement",
	"ContinueStatement", "Type", "ObjectType",
}

// String returns the label's name in the CPG library vocabulary.
func (l Label) String() string {
	if l < numLabels {
		return labelNames[l]
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// EdgeKind identifies the semantic relation an edge carries.
type EdgeKind int

// Edge kinds used by the paper's queries.
const (
	AST EdgeKind = iota
	EOG
	DFG
	REFERS_TO
	INVOKES
	RETURNS
	ARGUMENTS
	BASE
	CALLEE
	LHS
	RHS
	CONDITION
	BODY
	PARAMETERS
	FIELDS
	TYPE
	INITIALIZER
	KEY
	VALUE
	SPECIFIERS
	ARRAY_EXPRESSION
	SUBSCRIPT_EXPRESSION
	INPUT
)

var edgeKindNames = [...]string{
	"AST", "EOG", "DFG", "REFERS_TO", "INVOKES", "RETURNS", "ARGUMENTS",
	"BASE", "CALLEE", "LHS", "RHS", "CONDITION", "BODY", "PARAMETERS",
	"FIELDS", "TYPE", "INITIALIZER", "KEY", "VALUE", "SPECIFIERS",
	"ARRAY_EXPRESSION", "SUBSCRIPT_EXPRESSION", "INPUT",
}

// String returns the kind's name as the paper's queries spell it.
func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// edges holds one edge kind's neighbours of a node, in insertion order.
type edges struct {
	kind  EdgeKind
	nodes []*Node
}

// Node is a CPG node.
type Node struct {
	ID     int
	labels uint64 // bit l set for every Label l the node carries

	// Code is the canonical source text of the node (e.g. "msg.sender").
	Code string
	// LocalName is the unqualified name (function name, called member, ...).
	LocalName string
	// Operator is the operator code for BinaryOperator/UnaryOperator nodes.
	Operator string
	// Value is the literal value for Literal nodes.
	Value string
	// Kind is the record kind for RecordDeclaration nodes ("contract",
	// "struct", ...).
	Kind string
	// TypeName is the declared type for variables/fields/params.
	TypeName string
	// Index is the positional index for ARGUMENTS/PARAMETERS edges.
	Index int
	// Inferred marks nodes synthesized for incomplete snippets.
	Inferred bool
	// Pos is the source position of the underlying syntax.
	Pos solidity.Position

	// out and in hold only the kinds the node has edges of, in the order
	// each kind first appeared; most nodes have two to four.
	out []edges
	in  []edges
}

// Is reports whether the node carries the given label.
func (n *Node) Is(l Label) bool { return n.labels&(1<<l) != 0 }

// Labels returns the node's label names in sorted order.
func (n *Node) Labels() []string {
	out := make([]string, 0, bits.OnesCount64(n.labels))
	for ls := n.labels; ls != 0; ls &= ls - 1 {
		out = append(out, labelNames[bits.TrailingZeros64(ls)])
	}
	sort.Strings(out)
	return out
}

// AddLabel attaches an additional label; call Graph.Index afterwards for
// ByLabel to list the node under it.
func (n *Node) AddLabel(l Label) { n.labels |= 1 << l }

// Out returns the targets of the node's outgoing edges of the given kind.
func (n *Node) Out(kind EdgeKind) []*Node { return neighbours(n.out, kind) }

// In returns the sources of the node's incoming edges of the given kind.
func (n *Node) In(kind EdgeKind) []*Node { return neighbours(n.in, kind) }

func neighbours(es []edges, kind EdgeKind) []*Node {
	for i := range es {
		if es[i].kind == kind {
			return es[i].nodes
		}
	}
	return nil
}

// String renders the node as #ID[labels]"code" for diagnostics.
func (n *Node) String() string {
	l := "?"
	if n.labels != 0 {
		l = strings.Join(n.Labels(), "|")
	}
	code := n.Code
	if len(code) > 40 {
		code = code[:37] + "..."
	}
	return fmt.Sprintf("#%d[%s]%q", n.ID, l, code)
}

// Graph is a complete code property graph for one translation unit. Its
// nodes and edges live in an arena that Release hands to the next graph.
type Graph struct {
	Nodes []*Node
	Root  *Node // TranslationUnit node

	byLabel [numLabels][]*Node
	arena   *arena
}

// NewGraph returns an empty graph on an arena from the pool.
func NewGraph() *Graph { return newGraph(arenaPool.Get().(*arena)) }

func newGraph(a *arena) *Graph { return &Graph{Nodes: a.ids, arena: a} }

// Release returns the graph's memory to the pool for the next graph. After
// it, nothing may use the graph, its nodes, or a slice they returned. A
// graph that is never released is collected as usual; releasing it again is
// a no-op.
func (g *Graph) Release() {
	if a, size := g.detach(); a != nil && size <= maxPooledArena {
		arenaPool.Put(a)
	}
}

// detach empties g and returns its cleared arena with the bytes it holds,
// or nil if g was released.
func (g *Graph) detach() (*arena, int) {
	a := g.arena
	if a == nil {
		return nil, 0
	}
	a.ids = g.Nodes
	*g = Graph{}
	return a, a.reset()
}

// NewNode allocates a node with the given primary label.
func (g *Graph) NewNode(l Label) *Node {
	n := g.arena.nodes.New()
	n.ID, n.labels = len(g.Nodes), 1<<l
	g.Nodes = append(g.Nodes, n)
	g.byLabel[l] = g.arena.lists.Append(g.byLabel[l], n)
	return n
}

// Index registers any labels added after node creation; call after building.
func (g *Graph) Index() {
	g.byLabel = [numLabels][]*Node{}
	for _, n := range g.Nodes {
		for ls := n.labels; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros64(ls)
			g.byLabel[l] = g.arena.lists.Append(g.byLabel[l], n)
		}
	}
}

// ByLabel returns all nodes carrying the label, in ID order.
func (g *Graph) ByLabel(l Label) []*Node { return g.byLabel[l] }

// Edge adds a directed edge of the given kind.
func (g *Graph) Edge(from *Node, kind EdgeKind, to *Node) {
	if from == nil || to == nil {
		return
	}
	from.out = g.arena.appendEdge(from.out, kind, to)
	to.in = g.arena.appendEdge(to.in, kind, from)
}

// EdgeCount returns the total number of edges of the given kind.
func (g *Graph) EdgeCount(kind EdgeKind) int {
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Out(kind))
	}
	return total
}
