package cpg

import (
	"testing"
	"testing/quick"

	"repro/internal/solidity"
)

func mustGraph(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return g
}

func findByCode(g *Graph, l Label, code string) *Node {
	for _, n := range g.ByLabel(l) {
		if n.Code == code {
			return n
		}
	}
	return nil
}

func findByLocalName(g *Graph, l Label, name string) *Node {
	for _, n := range g.ByLabel(l) {
		if n.LocalName == name {
			return n
		}
	}
	return nil
}

// reaches reports whether to is reachable from from over the given kinds.
func reaches(from, to *Node, kinds ...EdgeKind) bool {
	seen := map[*Node]bool{}
	stack := []*Node{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, k := range kinds {
			stack = append(stack, n.Out(k)...)
		}
	}
	return false
}

func TestFigure2Graph(t *testing.T) {
	// The paper's Figure 2: if(msg.sender == owner){}
	src := `contract C {
		address owner;
		function f() public { if (msg.sender == owner) {} }
	}`
	g := mustGraph(t, src)

	sender := findByCode(g, LMemberExpression, "msg.sender")
	if sender == nil {
		t.Fatal("no msg.sender node")
	}
	ownerRef := findByCode(g, LDeclaredReference, "owner")
	if ownerRef == nil {
		t.Fatal("no owner reference")
	}
	eq := findByLocalName(g, LBinaryOperator, "")
	for _, n := range g.ByLabel(LBinaryOperator) {
		if n.Operator == "==" {
			eq = n
		}
	}
	if eq == nil || eq.Operator != "==" {
		t.Fatal("no == operator node")
	}
	ifNode := g.ByLabel(LIfStatement)
	if len(ifNode) != 1 {
		t.Fatalf("if nodes: %d", len(ifNode))
	}

	// EOG: msg.sender evaluated before owner, before ==, before IF.
	if !reaches(sender, ownerRef, EOG) {
		t.Error("EOG: msg.sender should precede owner")
	}
	if !reaches(ownerRef, eq, EOG) {
		t.Error("EOG: owner should precede ==")
	}
	if !reaches(eq, ifNode[0], EOG) {
		t.Error("EOG: == should precede IF")
	}
	// DFG: both references flow into ==, which flows into IF.
	if !reaches(sender, eq, DFG) {
		t.Error("DFG: msg.sender should flow into ==")
	}
	if !reaches(ownerRef, eq, DFG) {
		t.Error("DFG: owner should flow into ==")
	}
	if !reaches(eq, ifNode[0], DFG) {
		t.Error("DFG: == should flow into IF")
	}
	// LHS/RHS structure.
	if len(eq.Out(LHS)) != 1 || eq.Out(LHS)[0] != sender {
		t.Error("LHS of == should be msg.sender")
	}
	if len(eq.Out(RHS)) != 1 || eq.Out(RHS)[0] != ownerRef {
		t.Error("RHS of == should be owner")
	}
	// CONDITION edge from IF.
	if len(ifNode[0].Out(CONDITION)) != 1 || ifNode[0].Out(CONDITION)[0] != eq {
		t.Error("IF condition should be ==")
	}
}

func TestRecordAndFields(t *testing.T) {
	g := mustGraph(t, `contract Bank {
		mapping(address => uint) balances;
		address owner;
	}`)
	rec := findByLocalName(g, LRecordDeclaration, "Bank")
	if rec == nil {
		t.Fatal("no record")
	}
	if rec.Kind != "contract" {
		t.Errorf("kind: %q", rec.Kind)
	}
	fields := rec.Out(FIELDS)
	if len(fields) != 2 {
		t.Fatalf("fields: %d", len(fields))
	}
	bal := findByLocalName(g, LFieldDeclaration, "balances")
	if bal.TypeName != "mapping(address => uint)" {
		t.Errorf("type: %q", bal.TypeName)
	}
}

func TestReferenceResolution(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint total;
		function f(uint x) public {
			uint local = x;
			total = local;
		}
	}`)
	// x reference resolves to the parameter.
	xRef := findByCode(g, LDeclaredReference, "x")
	if xRef == nil {
		t.Fatal("no x ref")
	}
	tgt := refTarget(xRef)
	if tgt == nil || !tgt.Is(LParamVariableDecl) {
		t.Fatalf("x resolves to %v", tgt)
	}
	// total resolves to the field.
	totalRef := findByCode(g, LDeclaredReference, "total")
	if tt := refTarget(totalRef); tt == nil || !tt.Is(LFieldDeclaration) {
		t.Fatalf("total resolves to %v", refTarget(totalRef))
	}
}

func TestParamToFieldDataFlow(t *testing.T) {
	// The canonical query: MATCH (p:Parameter)-[:DFG*]->(:Field).
	g := mustGraph(t, `contract C {
		uint stored;
		function set(uint v) public { stored = v; }
	}`)
	param := findByLocalName(g, LParamVariableDecl, "v")
	field := findByLocalName(g, LFieldDeclaration, "stored")
	if param == nil || field == nil {
		t.Fatal("missing nodes")
	}
	if !reaches(param, field, DFG) {
		t.Error("parameter should flow into field")
	}
}

func TestInheritedFieldResolution(t *testing.T) {
	g := mustGraph(t, `
contract Parent { address owner; }
contract Child is Parent {
	function f() public { require(msg.sender == owner); }
}`)
	ref := findByCode(g, LDeclaredReference, "owner")
	tgt := refTarget(ref)
	if tgt == nil || !tgt.Is(LFieldDeclaration) {
		t.Fatalf("owner resolves to %v", tgt)
	}
}

func TestRollbackNodes(t *testing.T) {
	g := mustGraph(t, `contract C {
		function f() public {
			require(msg.sender == owner);
			revert();
		}
		function g2() public { throw; }
	}`)
	rollbacks := g.ByLabel(LRollback)
	// require's attached rollback + revert call + throw.
	if len(rollbacks) != 3 {
		t.Fatalf("rollback nodes: %d", len(rollbacks))
	}
	// require call node branches: one successor is a Rollback.
	req := findByLocalName(g, LCallExpression, "require")
	if req == nil {
		t.Fatal("no require call")
	}
	hasRollbackSucc := false
	for _, s := range req.Out(EOG) {
		if s.Is(LRollback) {
			hasRollbackSucc = true
		}
	}
	if !hasRollbackSucc {
		t.Error("require should branch into a Rollback node")
	}
	// revert node is EOG-terminal.
	rev := findByLocalName(g, LCallExpression, "revert")
	if rev == nil || !rev.Is(LRollback) {
		t.Fatalf("revert node: %v", rev)
	}
	if len(rev.Out(EOG)) != 0 {
		t.Error("revert should have no EOG successors")
	}
}

func TestModifierExpansion(t *testing.T) {
	g := mustGraph(t, `contract C {
		address owner;
		modifier onlyOwner() { require(msg.sender == owner); _; }
		function a() public onlyOwner { x = 1; }
		function b() public onlyOwner { x = 2; }
		uint x;
	}`)
	// Each application clones the modifier body: two require calls.
	var requires int
	for _, n := range g.ByLabel(LCallExpression) {
		if n.LocalName == "require" {
			requires++
		}
	}
	if requires != 2 {
		t.Fatalf("require calls after expansion: %d", requires)
	}
	// The require precedes the assignment in the EOG of function a.
	fa := findByLocalName(g, LFunctionDeclaration, "a")
	if fa == nil {
		t.Fatal("no function a")
	}
	var reachedRequire, reachedAssign bool
	for _, n := range g.ByLabel(LCallExpression) {
		if n.LocalName == "require" && reaches(fa, n, EOG) {
			reachedRequire = true
			for _, bin := range g.ByLabel(LBinaryOperator) {
				if bin.Operator == "=" && bin.Code == "x = 1" && reaches(n, bin, EOG) {
					reachedAssign = true
				}
			}
		}
	}
	if !reachedRequire || !reachedAssign {
		t.Errorf("modifier wrapping broken: require=%v assign=%v", reachedRequire, reachedAssign)
	}
}

func TestCallResolutionInvokes(t *testing.T) {
	g := mustGraph(t, `contract C {
		uint total;
		function outer(uint v) public { inner(v); }
		function inner(uint w) public { total = w; }
	}`)
	call := findByLocalName(g, LCallExpression, "inner")
	if call == nil {
		t.Fatal("no call")
	}
	inv := call.Out(INVOKES)
	if len(inv) != 1 || inv[0].LocalName != "inner" {
		t.Fatalf("INVOKES: %v", inv)
	}
	// Argument flows into the callee parameter and onward into the field.
	outerParam := findByLocalName(g, LParamVariableDecl, "v")
	field := findByLocalName(g, LFieldDeclaration, "total")
	if !reaches(outerParam, field, DFG) {
		t.Error("outer parameter should flow through the call into the field")
	}
}

func TestReturnsEdges(t *testing.T) {
	g := mustGraph(t, `contract C {
		function caller() public returns (uint) { return helper(); }
		function helper() public returns (uint) { return 42; }
	}`)
	call := findByLocalName(g, LCallExpression, "helper")
	if call == nil {
		t.Fatal("no call")
	}
	var gotReturns bool
	for _, r := range g.ByLabel(LReturnStatement) {
		for _, tgt := range r.Out(RETURNS) {
			if tgt == call {
				gotReturns = true
			}
		}
	}
	if !gotReturns {
		t.Error("helper's return should have a RETURNS edge to the call")
	}
}

func TestCallOptionsSpecifiedExpression(t *testing.T) {
	g := mustGraph(t, `contract C {
		function f() public { msg.sender.call{value: address(this).balance}(""); }
	}`)
	call := findByLocalName(g, LCallExpression, "call")
	if call == nil {
		t.Fatal("no call node")
	}
	spec := call.Out(CALLEE)
	if len(spec) != 1 || !spec[0].Is(LSpecifiedExpression) {
		t.Fatalf("callee: %v", spec)
	}
	kvs := spec[0].Out(SPECIFIERS)
	if len(kvs) != 1 || !kvs[0].Is(LKeyValueExpression) {
		t.Fatalf("specifiers: %v", kvs)
	}
	key := kvs[0].Out(KEY)
	if len(key) != 1 || key[0].LocalName != "value" {
		t.Fatalf("key: %v", key)
	}
}

func TestFallbackFunctionLocalName(t *testing.T) {
	g := mustGraph(t, `contract C { function () payable { lib.delegatecall(msg.data); } }`)
	var fallback *Node
	for _, f := range g.ByLabel(LFunctionDeclaration) {
		if f.LocalName == "" {
			fallback = f
		}
	}
	if fallback == nil {
		t.Fatal("no fallback function with empty localName")
	}
	dc := findByLocalName(g, LCallExpression, "delegatecall")
	if dc == nil {
		t.Fatal("no delegatecall node")
	}
	if !reaches(fallback, dc, EOG) {
		t.Error("fallback should reach delegatecall in EOG")
	}
	args := dc.Out(ARGUMENTS)
	if len(args) != 1 || args[0].Code != "msg.data" {
		t.Fatalf("args: %v", args)
	}
}

func TestSnippetInference(t *testing.T) {
	g := mustGraph(t, `msg.sender.transfer(amount);`)
	var inferredFn *Node
	for _, f := range g.ByLabel(LFunctionDeclaration) {
		if f.Inferred {
			inferredFn = f
		}
	}
	if inferredFn == nil {
		t.Fatal("no inferred function")
	}
	tr := findByLocalName(g, LCallExpression, "transfer")
	if tr == nil || !reaches(inferredFn, tr, EOG) {
		t.Error("inferred function should wrap the statement in the EOG")
	}
}

func TestLoopEOGCycle(t *testing.T) {
	g := mustGraph(t, `contract C {
		function f(uint n) public {
			for (uint i = 0; i < n; i++) { total += i; }
		}
		uint total;
	}`)
	loops := g.ByLabel(LForStatement)
	if len(loops) != 1 {
		t.Fatalf("for nodes: %d", len(loops))
	}
	// The loop node must be on an EOG cycle.
	if !onCycle(loops[0]) {
		t.Error("for node should be on an EOG cycle")
	}
}

func onCycle(n *Node) bool {
	seen := map[*Node]bool{}
	var stack []*Node
	stack = append(stack, n.Out(EOG)...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == n {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, cur.Out(EOG)...)
	}
	return false
}

func TestWhileAndDoWhileCycles(t *testing.T) {
	g := mustGraph(t, `contract C {
		function f() public {
			while (x > 0) { x--; }
			do { x++; } while (x < 3);
		}
		uint x;
	}`)
	for _, l := range g.ByLabel(LWhileStatement) {
		if !onCycle(l) {
			t.Error("while node should be on an EOG cycle")
		}
	}
	for _, l := range g.ByLabel(LDoStatement) {
		if !onCycle(l) {
			t.Error("do node should be on an EOG cycle")
		}
	}
}

func TestBreakLeavesLoop(t *testing.T) {
	g := mustGraph(t, `contract C {
		function f() public {
			while (true) { break; }
			done = true;
		}
		bool done;
	}`)
	br := g.ByLabel(LBreakStatement)
	if len(br) != 1 {
		t.Fatalf("break nodes: %d", len(br))
	}
	assign := findByCode(g, LBinaryOperator, "done = true")
	if assign == nil {
		t.Fatal("no assignment after loop")
	}
	if !reaches(br[0], assign, EOG) {
		t.Error("break should flow to the statement after the loop")
	}
}

func TestReturnIsTerminal(t *testing.T) {
	g := mustGraph(t, `contract C { function f() public returns (uint) { return 1; } }`)
	rets := g.ByLabel(LReturnStatement)
	if len(rets) != 1 {
		t.Fatalf("returns: %d", len(rets))
	}
	if len(rets[0].Out(EOG)) != 0 {
		t.Error("return should be EOG-terminal")
	}
}

func TestConstructorLabel(t *testing.T) {
	g := mustGraph(t, `contract C {
		constructor() { owner = msg.sender; }
		address owner;
	}
	contract Old { function Old() public {} }`)
	var ctors int
	for _, f := range g.ByLabel(LFunctionDeclaration) {
		if f.Is(LConstructorDecl) {
			ctors++
		}
	}
	if ctors != 2 {
		t.Fatalf("constructors: %d (old-style constructor not detected?)", ctors)
	}
}

func TestSubscriptWriteFlowsToField(t *testing.T) {
	g := mustGraph(t, `contract C {
		mapping(address => uint) balances;
		function deposit() public payable { balances[msg.sender] += msg.value; }
	}`)
	field := findByLocalName(g, LFieldDeclaration, "balances")
	val := findByCode(g, LMemberExpression, "msg.value")
	if field == nil || val == nil {
		t.Fatal("missing nodes")
	}
	if !reaches(val, field, DFG) {
		t.Error("msg.value should flow into the balances field")
	}
}

func TestGraphDeterminism(t *testing.T) {
	src := `contract C {
		uint a; uint b;
		function f(uint x) public { a = x; b = a + 1; if (b > 2) { revert(); } }
	}`
	g1 := mustGraph(t, src)
	g2 := mustGraph(t, src)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes), len(g2.Nodes))
	}
	for _, k := range []EdgeKind{AST, EOG, DFG, REFERS_TO} {
		if g1.EdgeCount(k) != g2.EdgeCount(k) {
			t.Errorf("%v edge counts differ", k)
		}
	}
}

func TestBuildNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEOGHasNoDanglingEntryForEmptyFunctions(t *testing.T) {
	g := mustGraph(t, `contract C { function f() public {} }`)
	fn := findByLocalName(g, LFunctionDeclaration, "f")
	if fn == nil {
		t.Fatal("no fn")
	}
	if len(fn.Out(EOG)) != 0 {
		t.Errorf("empty function should have no EOG successors, got %d", len(fn.Out(EOG)))
	}
}

func TestNodePropertiesAndLabels(t *testing.T) {
	g := mustGraph(t, `contract C { function f() public { x = 1 + 2; } uint x; }`)
	add := (*Node)(nil)
	for _, n := range g.ByLabel(LBinaryOperator) {
		if n.Operator == "+" {
			add = n
		}
	}
	if add == nil {
		t.Fatal("no + node")
	}
	if add.Code != "1 + 2" {
		t.Errorf("code: %q", add.Code)
	}
	lit := findByCode(g, LLiteral, "1")
	if lit == nil || lit.Value != "1" {
		t.Fatalf("literal: %v", lit)
	}
}

func TestBuildFromStrictContract(t *testing.T) {
	// A full well-formed contract must produce identical structure whether
	// parsed fuzzily or strictly.
	src := `contract C { uint x; function f() public { x = 1; } }`
	u1, err := solidity.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := solidity.ParseStrict(src)
	if err != nil {
		t.Fatal(err)
	}
	g1 := Build(src, u1)
	g2 := Build(src, u2)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Errorf("fuzzy %d nodes vs strict %d nodes", len(g1.Nodes), len(g2.Nodes))
	}
}
