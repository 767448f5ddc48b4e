package query

import (
	"testing"

	"repro/internal/cpg"
)

// chain builds a linear EOG graph n0 -> n1 -> ... -> nk.
func chain(g *cpg.Graph, k int) []*cpg.Node {
	nodes := make([]*cpg.Node, k)
	for i := range nodes {
		nodes[i] = g.NewNode(cpg.LCallExpression)
	}
	for i := 0; i+1 < k; i++ {
		g.Edge(nodes[i], cpg.EOG, nodes[i+1])
	}
	return nodes
}

func TestReachAndPathExists(t *testing.T) {
	g := cpg.NewGraph()
	ns := chain(g, 5)
	q := New(g)
	if !q.PathExists(ns[0], ns[4], cpg.EOG) {
		t.Error("path should exist")
	}
	if q.PathExists(ns[4], ns[0], cpg.EOG) {
		t.Error("reverse path should not exist")
	}
	if q.PathExists(ns[0], ns[0], cpg.EOG) {
		t.Error("no self loop")
	}
	r := q.Reach(ns[1], cpg.EOG)
	if r.Len() != 4 || r.Has(ns[0]) {
		t.Errorf("reach size: %d", r.Len())
	}
	rr := q.ReachRev(ns[3], cpg.EOG)
	if rr.Len() != 4 || rr.Has(ns[4]) {
		t.Errorf("reachrev size: %d", rr.Len())
	}
}

func TestMaxDepthLimitsReach(t *testing.T) {
	g := cpg.NewGraph()
	ns := chain(g, 10)
	q := NewLimited(g, Limits{MaxDepth: 3})
	r := q.Reach(ns[0], cpg.EOG)
	if r.Len() != 4 { // start + 3 hops
		t.Errorf("limited reach size: %d", r.Len())
	}
}

func TestBudgetTruncation(t *testing.T) {
	g := cpg.NewGraph()
	ns := chain(g, 100)
	q := NewLimited(g, Limits{MaxSteps: 10})
	q.Reach(ns[0], cpg.EOG)
	if !q.BudgetHit() {
		t.Error("budget should be hit")
	}
}

func TestTerminals(t *testing.T) {
	g := cpg.NewGraph()
	// Diamond with two terminal leaves.
	a, b, c, d, e := g.NewNode(cpg.LIfStatement), g.NewNode(cpg.LCallExpression),
		g.NewNode(cpg.LCallExpression), g.NewNode(cpg.LRollback), g.NewNode(cpg.LReturnStatement)
	g.Edge(a, cpg.EOG, b)
	g.Edge(a, cpg.EOG, c)
	g.Edge(b, cpg.EOG, d)
	g.Edge(c, cpg.EOG, e)
	q := New(g)
	terms := q.Terminals(a, cpg.EOG)
	if len(terms) != 2 {
		t.Fatalf("terminals: %d", len(terms))
	}
	var rollbacks int
	for _, x := range terms {
		if x.Is(cpg.LRollback) {
			rollbacks++
		}
	}
	if rollbacks != 1 {
		t.Errorf("rollback terminals: %d", rollbacks)
	}
}

func TestAnyTerminalAvoiding(t *testing.T) {
	g := cpg.NewGraph()
	// branch -> danger -> end1 ; branch -> safe -> end2
	branch := g.NewNode(cpg.LIfStatement)
	danger := g.NewNode(cpg.LCallExpression)
	safe := g.NewNode(cpg.LCallExpression)
	end1 := g.NewNode(cpg.LReturnStatement)
	end2 := g.NewNode(cpg.LReturnStatement)
	g.Edge(branch, cpg.EOG, danger)
	g.Edge(branch, cpg.EOG, safe)
	g.Edge(danger, cpg.EOG, end1)
	g.Edge(safe, cpg.EOG, end2)
	q := New(g)
	if !q.AnyTerminalAvoiding(branch, danger, nil, cpg.EOG) {
		t.Error("alternative path avoiding danger should exist")
	}
	// Without the safe branch there is no avoiding path.
	g2 := cpg.NewGraph()
	b2 := g2.NewNode(cpg.LIfStatement)
	d2 := g2.NewNode(cpg.LCallExpression)
	e2 := g2.NewNode(cpg.LReturnStatement)
	g2.Edge(b2, cpg.EOG, d2)
	g2.Edge(d2, cpg.EOG, e2)
	q2 := New(g2)
	if q2.AnyTerminalAvoiding(b2, d2, nil, cpg.EOG) {
		t.Error("no avoiding path should exist")
	}
	// ... unless the only path ends in a Rollback and okPred accepts it.
	rb := g2.NewNode(cpg.LRollback)
	g2.Edge(e2, cpg.EOG, rb)
	if !q2.AnyTerminalAvoiding(b2, d2, func(n *cpg.Node) bool { return n.Is(cpg.LRollback) }, cpg.EOG) {
		t.Error("rollback terminal should satisfy okPred")
	}
}

func TestReachAny(t *testing.T) {
	g := cpg.NewGraph()
	ns := chain(g, 4)
	ns[3].LocalName = "target"
	q := New(g)
	if !q.ReachAny(ns[0], func(n *cpg.Node) bool { return n.LocalName == "target" }, cpg.EOG) {
		t.Error("ReachAny failed")
	}
}

func TestPathExistsNilArgs(t *testing.T) {
	g := cpg.NewGraph()
	n := g.NewNode(cpg.LCallExpression)
	q := New(g)
	if q.PathExists(nil, n, cpg.EOG) || q.PathExists(n, nil, cpg.EOG) {
		t.Error("nil endpoints should not have paths")
	}
}
