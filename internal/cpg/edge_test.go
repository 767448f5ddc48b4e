package cpg

import (
	"slices"
	"testing"
)

func TestConditionalExpressionGraph(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint y;
		function f(uint a, uint b) public { y = a > b ? a : b; }
	}`)
	conds := g.ByLabel(LConditionalExpression)
	if len(conds) != 1 {
		t.Fatalf("conditional nodes: %d", len(conds))
	}
	n := conds[0]
	if len(n.Out(CONDITION)) != 1 || len(n.Out(LHS)) != 1 || len(n.Out(RHS)) != 1 {
		t.Fatalf("structure: cond=%d lhs=%d rhs=%d",
			len(n.Out(CONDITION)), len(n.Out(LHS)), len(n.Out(RHS)))
	}
	// Branching in the EOG: the ternary node has two successors.
	if !isBranchNode(n) {
		t.Error("ternary should branch in EOG")
	}
	// Value flows into the assignment and onward into the field.
	field := findByLocalName(g, LFieldDeclaration, "y")
	if !reaches(n, field, DFG) {
		t.Error("ternary value should reach the field")
	}
}

func isBranchNode(n *Node) bool {
	succ := n.Out(EOG)
	if len(succ) < 2 {
		return false
	}
	return succ[0] != succ[1]
}

func TestTupleAssignmentDataFlow(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint a; uint b;
		function swap() public { (a, b) = (b, a); }
	}`)
	fa := findByLocalName(g, LFieldDeclaration, "a")
	fb := findByLocalName(g, LFieldDeclaration, "b")
	if fa == nil || fb == nil {
		t.Fatal("fields missing")
	}
	if !reaches(fb, fa, DFG) || !reaches(fa, fb, DFG) {
		t.Error("tuple swap should flow both ways")
	}
}

func TestTryCatchEOGBranches(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint y;
		function f() public {
			try other.get() returns (uint v) { y = v; } catch { y = 0; }
		}
	}`)
	call := findByLocalName(g, LCallExpression, "get")
	if call == nil {
		t.Fatal("no call")
	}
	if len(call.Out(EOG)) < 2 {
		t.Errorf("try call should branch into body and catch, got %d successors", len(call.Out(EOG)))
	}
}

func TestDeleteStatementWritesDeclaration(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint stored;
		function clear() public { delete stored; }
	}`)
	field := findByLocalName(g, LFieldDeclaration, "stored")
	var del *Node
	for _, n := range g.ByLabel(LUnaryOperator) {
		if n.Operator == "delete" {
			del = n
		}
	}
	if del == nil {
		t.Fatal("no delete node")
	}
	if !reaches(del, field, DFG) {
		t.Error("delete should write the field")
	}
}

func TestUncheckedBlockTransparent(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint total;
		function f(uint x) public { unchecked { total += x; } }
	}`)
	param := findByLocalName(g, LParamVariableDecl, "x")
	field := findByLocalName(g, LFieldDeclaration, "total")
	if !reaches(param, field, DFG) {
		t.Error("data flow through unchecked block broken")
	}
}

func TestEmitStatementStructure(t *testing.T) {
	g := mustGraph(t, `contract C {
		event Log(uint x);
		function f() public { emit Log(1); }
	}`)
	emits := g.ByLabel(LEmitStatement)
	if len(emits) != 1 {
		t.Fatalf("emit nodes: %d", len(emits))
	}
	children := emits[0].Out(AST)
	if len(children) != 1 || !children[0].Is(LCallExpression) {
		t.Fatalf("emit children: %v", children)
	}
	// No field named Log must have been inferred.
	if f := findByLocalName(g, LFieldDeclaration, "Log"); f != nil {
		t.Error("event name inferred as field")
	}
}

func TestContinueTargetsLoopHead(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint s;
		function f(uint n) public {
			for (uint i = 0; i < n; i++) {
				if (i == 2) { continue; }
				s += i;
			}
		}
	}`)
	conts := g.ByLabel(LContinueStatement)
	if len(conts) != 1 {
		t.Fatalf("continue nodes: %d", len(conts))
	}
	loop := g.ByLabel(LForStatement)[0]
	if !reaches(conts[0], loop, EOG) {
		t.Error("continue should flow back to the loop")
	}
}

func TestLibraryCallResolution(t *testing.T) {
	g := mustGraph(t, `
library SafeMath {
	function add(uint a, uint b) internal pure returns (uint) {
		uint c = a + b;
		require(c >= a);
		return c;
	}
}
contract T {
	uint total;
	function bump(uint v) public { total = SafeMath.add(total, v); }
}`)
	call := findByLocalName(g, LCallExpression, "add")
	if call == nil {
		t.Fatal("no call")
	}
	inv := call.Out(INVOKES)
	if len(inv) != 1 || inv[0].LocalName != "add" {
		t.Fatalf("INVOKES: %v", inv)
	}
	// The helper's guard is connected: v flows into the library comparison.
	param := findByLocalName(g, LParamVariableDecl, "v")
	var cmp *Node
	for _, n := range g.ByLabel(LBinaryOperator) {
		if n.Operator == ">=" {
			cmp = n
		}
	}
	if cmp == nil || !reaches(param, cmp, DFG) {
		t.Error("argument should flow into the library guard")
	}
}

func TestReceiveFunctionGraph(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint received;
		receive() external payable { received += msg.value; }
	}`)
	var recv *Node
	for _, f := range g.ByLabel(LFunctionDeclaration) {
		if f.LocalName == "" {
			recv = f
		}
	}
	if recv == nil {
		t.Fatal("receive not modeled as unnamed function")
	}
	field := findByLocalName(g, LFieldDeclaration, "received")
	val := findByCode(g, LMemberExpression, "msg.value")
	if !reaches(val, field, DFG) {
		t.Error("msg.value should flow into the field")
	}
}

func TestFieldInitializerEdge(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint limit = 1 ether;
	}`)
	f := findByLocalName(g, LFieldDeclaration, "limit")
	if f == nil {
		t.Fatal("no field")
	}
	// Initializer values are recorded in the field's code.
	if f.Code == "" {
		t.Error("field code empty")
	}
}

func TestNodeStringAndLabels(t *testing.T) {
	g := mustGraph(t, `contract C { function f() public {} }`)
	fn := findByLocalName(g, LFunctionDeclaration, "f")
	if fn.String() == "" {
		t.Error("node string")
	}
	if got := fn.Labels(); !slices.Equal(got, []string{"FunctionDeclaration"}) {
		t.Errorf("labels %v", got)
	}
	if fn.Is(LRollback) || len(g.ByLabel(LRollback)) != 0 {
		t.Fatal("function is a Rollback before AddLabel")
	}
	fn.AddLabel(LRollback)
	if !fn.Is(LRollback) || !fn.Is(LFunctionDeclaration) {
		t.Error("AddLabel failed")
	}
	if got := fn.Labels(); !slices.Equal(got, []string{"FunctionDeclaration", "Rollback"}) {
		t.Errorf("labels after AddLabel %v", got)
	}
	g.Index()
	if got := g.ByLabel(LRollback); len(got) != 1 || got[0] != fn {
		t.Errorf("re-index: Rollback nodes %v, want [%v]", got, fn)
	}
	if got := g.ByLabel(LFunctionDeclaration); len(got) != 1 || got[0] != fn {
		t.Errorf("re-index: FunctionDeclaration nodes %v, want [%v]", got, fn)
	}
}
