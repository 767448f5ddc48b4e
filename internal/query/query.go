// Package query provides graph-pattern primitives over a CPG, standing in
// for the Neo4j/Cypher layer of the paper's toolchain. It supports the
// constructs the paper's 17 queries need:
//
//   - node selection by label, with property predicates as Go closures,
//   - variable-length path existence over sets of edge kinds ([:EOG*],
//     [:DFG*], [:EOG|INVOKES|RETURNS*], ...) under per-query traversal
//     budgets,
//   - existential and negated sub-patterns (expressed as Go closures),
//   - the phase-2 "path reduction" mechanism: a configurable maximum path
//     depth that bounds data-flow exploration when validation times out.
package query

import "repro/internal/cpg"

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
