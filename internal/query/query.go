// Package query provides graph-pattern primitives over a CPG, standing in
// for the Neo4j/Cypher layer of the paper's toolchain. It supports the
// constructs the paper's 17 queries need:
//
//   - node selection by label and property predicates,
//   - variable-length path existence over sets of edge kinds ([:EOG*],
//     [:DFG*], [:EOG|INVOKES|RETURNS*], ...),
//   - forward path enumeration with per-query traversal budgets,
//   - existential and negated sub-patterns (expressed as Go closures),
//   - the phase-2 "path reduction" mechanism: a configurable maximum path
//     depth that bounds data-flow exploration when validation times out.
package query

import (
	"errors"

	"repro/internal/cpg"
)

// ErrBudgetExceeded is reported when a traversal exhausts its step budget
// (the analogue of the paper's Neo4j query timeouts).
var ErrBudgetExceeded = errors.New("query: traversal budget exceeded")

// Limits bounds a query's traversals.
type Limits struct {
	// MaxDepth bounds variable-length path expansion; 0 means unbounded.
	// Phase-2 validation re-runs queries with reduced MaxDepth (the paper's
	// iterative data-flow path-length reduction).
	MaxDepth int
	// MaxSteps bounds the total node visits of one traversal; 0 = default.
	MaxSteps int
}

// DefaultMaxSteps bounds a single traversal when Limits.MaxSteps is zero.
const DefaultMaxSteps = 200000

func (l Limits) steps() int {
	if l.MaxSteps <= 0 {
		return DefaultMaxSteps
	}
	return l.MaxSteps
}

// Q is a query context over one graph.
type Q struct {
	G      *cpg.Graph
	Limits Limits
	// budgetHit records whether any traversal was truncated; callers use it
	// to decide whether a phase-2 re-run is warranted.
	budgetHit bool
	// queue is the breadth-first walks' scratch, reused from walk to walk.
	queue []*cpg.Node
}

// New returns a query context with unbounded depth.
func New(g *cpg.Graph) *Q { return &Q{G: g} }

// NewLimited returns a query context with the given limits.
func NewLimited(g *cpg.Graph, l Limits) *Q { return &Q{G: g, Limits: l} }

// BudgetHit reports whether any traversal was truncated by the limits.
func (q *Q) BudgetHit() bool { return q.budgetHit }

// Nodes returns all nodes with the given label.
func (q *Q) Nodes(l cpg.Label) []*cpg.Node { return q.G.ByLabel(l) }

// Pred is a node predicate.
type Pred func(*cpg.Node) bool

// Filter returns the nodes satisfying pred.
func Filter(nodes []*cpg.Node, pred Pred) []*cpg.Node {
	var out []*cpg.Node
	for _, n := range nodes {
		if pred(n) {
			out = append(out, n)
		}
	}
	return out
}

// HasCode matches nodes by exact canonical code.
func HasCode(code string) Pred {
	return func(n *cpg.Node) bool { return n.Code == code }
}

// HasLocalName matches nodes by localName.
func HasLocalName(name string) Pred {
	return func(n *cpg.Node) bool { return n.LocalName == name }
}

// LocalNameIn matches nodes whose localName is any of names (the Cypher
// `c.name IN [...]` idiom).
func LocalNameIn(names ...string) Pred {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(n *cpg.Node) bool { return set[n.LocalName] }
}

// OperatorIn matches operator nodes by operator code.
func OperatorIn(ops ...string) Pred {
	set := make(map[string]bool, len(ops))
	for _, o := range ops {
		set[o] = true
	}
	return func(n *cpg.Node) bool { return set[n.Operator] }
}

// IsLabel matches nodes carrying the label.
func IsLabel(l cpg.Label) Pred {
	return func(n *cpg.Node) bool { return n.Is(l) }
}

// Not negates a predicate.
func Not(p Pred) Pred { return func(n *cpg.Node) bool { return !p(n) } }

// And combines predicates conjunctively.
func And(ps ...Pred) Pred {
	return func(n *cpg.Node) bool {
		for _, p := range ps {
			if !p(n) {
				return false
			}
		}
		return true
	}
}

// Or combines predicates disjunctively.
func Or(ps ...Pred) Pred {
	return func(n *cpg.Node) bool {
		for _, p := range ps {
			if p(n) {
				return true
			}
		}
		return false
	}
}

// --- reachability -----------------------------------------------------------

// Reach returns every node reachable from start over the given edge kinds
// (start included; the Cypher `-[:K*0..]->` closure).
func (q *Q) Reach(start *cpg.Node, kinds ...cpg.EdgeKind) cpg.NodeSet {
	return q.reach([]*cpg.Node{start}, false, kinds)
}

// ReachRev returns every node that reaches start over the given edge kinds.
func (q *Q) ReachRev(start *cpg.Node, kinds ...cpg.EdgeKind) cpg.NodeSet {
	return q.reach([]*cpg.Node{start}, true, kinds)
}

// ReachFrom returns every node reachable from any of the starts.
func (q *Q) ReachFrom(starts []*cpg.Node, kinds ...cpg.EdgeKind) cpg.NodeSet {
	return q.reach(starts, false, kinds)
}

// reach is a breadth-first walk over each kind's list in turn. The queue is
// scratch kept on q between walks; depth is counted by level boundaries.
func (q *Q) reach(starts []*cpg.Node, rev bool, kinds []cpg.EdgeKind) cpg.NodeSet {
	seen := cpg.NewNodeSet(q.G)
	queue := q.queue[:0]
	for _, s := range starts {
		if s != nil && seen.Add(s) {
			queue = append(queue, s)
		}
	}
	steps, budget := 0, q.Limits.steps()
	depth, levelEnd := 0, len(queue)
walk:
	for i := 0; i < len(queue); i++ {
		if i == levelEnd {
			depth, levelEnd = depth+1, len(queue)
		}
		if q.Limits.MaxDepth > 0 && depth >= q.Limits.MaxDepth {
			break
		}
		for _, k := range kinds {
			next := queue[i].Out(k)
			if rev {
				next = queue[i].In(k)
			}
			for _, nb := range next {
				if steps++; steps > budget {
					q.budgetHit = true
					break walk
				}
				if seen.Add(nb) {
					queue = append(queue, nb)
				}
			}
		}
	}
	q.queue = queue
	return seen
}

// terminal reports whether n has no outgoing edge of any of the kinds.
func terminal(n *cpg.Node, kinds []cpg.EdgeKind) bool {
	for _, k := range kinds {
		if len(n.Out(k)) > 0 {
			return false
		}
	}
	return true
}

// PathExists reports whether to is reachable from from over kinds with at
// least one edge (the Cypher `-[:K*1..]->`).
func (q *Q) PathExists(from, to *cpg.Node, kinds ...cpg.EdgeKind) bool {
	if from == nil || to == nil {
		return false
	}
	for _, k := range kinds {
		for _, first := range from.Out(k) {
			if first == to || q.Reach(first, kinds...).Has(to) {
				return true
			}
		}
	}
	return false
}

// ReachAny reports whether any node satisfying pred is reachable from start
// (zero or more edges).
func (q *Q) ReachAny(start *cpg.Node, pred Pred, kinds ...cpg.EdgeKind) bool {
	for n := range q.Reach(start, kinds...).All() {
		if pred(n) {
			return true
		}
	}
	return false
}

// Terminals returns the reachable nodes with no outgoing edges of the kinds
// (the query idiom `(last) where not exists((last)-[:EOG]->())`), in ID
// order.
func (q *Q) Terminals(start *cpg.Node, kinds ...cpg.EdgeKind) []*cpg.Node {
	var out []*cpg.Node
	for n := range q.Reach(start, kinds...).All() {
		if terminal(n, kinds) {
			out = append(out, n)
		}
	}
	return out
}

// --- path enumeration --------------------------------------------------------

// Path is a node sequence connected by edges of the traversed kinds.
type Path []*cpg.Node

// Last returns the final node of the path.
func (p Path) Last() *cpg.Node { return p[len(p)-1] }

// Contains reports whether the path visits n.
func (p Path) Contains(n *cpg.Node) bool {
	for _, x := range p {
		if x == n {
			return true
		}
	}
	return false
}

// WalkPaths enumerates simple paths starting at start over kinds, invoking
// visit for every maximal or budget-truncated path prefix ending at a node
// with either no successors or only already-visited successors. visit
// returning false stops the enumeration. Cycles are cut by excluding nodes
// already on the current path.
func (q *Q) WalkPaths(start *cpg.Node, visit func(Path) bool, kinds ...cpg.EdgeKind) {
	if start == nil {
		return
	}
	budget := q.Limits.steps()
	steps := 0
	onPath := cpg.NewNodeSet(q.G)
	onPath.Add(start)
	path := Path{start}
	var rec func() bool
	rec = func() bool {
		steps++
		if steps > budget {
			q.budgetHit = true
			return false
		}
		cur := path.Last()
		if q.Limits.MaxDepth > 0 && len(path) > q.Limits.MaxDepth {
			return visit(append(Path(nil), path...))
		}
		extended := false
		for _, k := range kinds {
			for _, nb := range cur.Out(k) {
				if !onPath.Add(nb) {
					continue
				}
				extended = true
				path = append(path, nb)
				ok := rec()
				path = path[:len(path)-1]
				onPath.Remove(nb)
				if !ok {
					return false
				}
			}
		}
		if !extended {
			return visit(append(Path(nil), path...))
		}
		return true
	}
	rec()
}

// AnyPathThrough reports whether some path from start over kinds passes
// through mid and afterwards satisfies endPred at its final node.
func (q *Q) AnyPathThrough(start, mid *cpg.Node, endPred Pred, kinds ...cpg.EdgeKind) bool {
	if !(start == mid || q.PathExists(start, mid, kinds...)) {
		return false
	}
	for _, t := range q.Terminals(mid, kinds...) {
		if endPred(t) {
			return true
		}
	}
	return false
}

// AnyTerminalAvoiding reports whether execution starting at start can reach a
// terminal node while never visiting avoid, or can reach a terminal node
// satisfying okPred (typically a Rollback). This is the paper's recurring
// mitigation pattern: an alternative path exists that avoids the dangerous
// operation or rolls the transaction back.
func (q *Q) AnyTerminalAvoiding(start, avoid *cpg.Node, okPred Pred, kinds ...cpg.EdgeKind) bool {
	// Terminal satisfying okPred anywhere?
	for _, t := range q.Terminals(start, kinds...) {
		if okPred != nil && okPred(t) {
			return true
		}
	}
	if avoid == nil {
		return false
	}
	// Reachability avoiding `avoid`: BFS that never enters avoid.
	if start == avoid {
		return false
	}
	seen := cpg.NewNodeSet(q.G)
	seen.Add(start)
	queue := append(q.queue[:0], start)
	steps, budget := 0, q.Limits.steps()
	found := false
walk:
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		if terminal(n, kinds) {
			found = true // terminal reached without touching avoid
			break
		}
		for _, k := range kinds {
			for _, nb := range n.Out(k) {
				if steps++; steps > budget {
					q.budgetHit = true
					break walk
				}
				if nb != avoid && seen.Add(nb) {
					queue = append(queue, nb)
				}
			}
		}
	}
	q.queue = queue
	return found
}
