package ccc

import (
	"strconv"
	"strings"

	"repro/internal/cpg"
)

// dosCallBlocksSends (paper Listing 8): an ether-moving call whose failure
// prevents the execution of other ether-moving calls. A throwing
// transfer/send in front of further sends lets one hostile recipient block
// everyone behind it.
func (c *Ctx) dosCallBlocksSends() []Finding {
	var out []Finding
	for _, first := range c.g.ByLabel(cpg.LCallExpression) {
		if !c.isMoneyCall(first) {
			continue
		}
		// Find a later money call on the same execution path.
		var second *cpg.Node
		for n := range c.eogReach(first).All() {
			if n != first && n.Is(cpg.LCallExpression) && c.isMoneyCall(n) {
				second = n
				break
			}
		}
		if second == nil {
			continue
		}
		switch first.LocalName {
		case "transfer":
			// transfer() throws on failure: the later send is blocked.
			out = append(out, c.finding(first, "failing transfer blocks later ether sends"))
		case "send", "call", "value":
			// send/call return false; the DoS arises when the failure
			// branch prevents the later call (require(success) style).
			blocked := false
			for t := range c.q.Reach(first, cpg.DFG).All() {
				if t == first {
					continue
				}
				if t.Is(cpg.LCallExpression) && (t.LocalName == "require" || t.LocalName == "assert") {
					blocked = true
				}
				if isBranch(t) && !c.q.AnyTerminalAvoiding(t, second, nil, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
					blocked = true
				}
			}
			if blocked {
				out = append(out, c.finding(first, "failure of external call blocks later ether sends"))
			}
		}
	}
	return dedupe(out)
}

// dosSendBlocksState (paper Listing 9): a state change that can only happen
// after a successful external transfer; a recipient rejecting payment wedges
// the contract state.
func (c *Ctx) dosSendBlocksState() []Finding {
	var out []Finding
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		if call.LocalName != "transfer" && call.LocalName != "send" {
			continue
		}
		if call.LocalName == "send" && !c.sendFailureStopsExecution(call) {
			continue
		}
		fn := c.function(call)
		if fn == nil {
			continue
		}
		for w := range c.eogReach(call).All() {
			if w == call {
				continue
			}
			for _, fd := range fieldWrites(w) {
				// Mitigated if another (non-constructor) function writes the
				// same field without passing through this call.
				if c.fieldWritableElsewhere(fd, call) {
					continue
				}
				out = append(out, c.finding(call, "state change only reachable after successful transfer; recipient can wedge contract"))
				_ = fd
			}
		}
	}
	return dedupe(out)
}

// sendFailureStopsExecution reports whether the boolean result of send()
// guards the continuation (require(sent) / if(!sent) revert).
func (c *Ctx) sendFailureStopsExecution(call *cpg.Node) bool {
	for t := range c.q.Reach(call, cpg.DFG).All() {
		if t == call {
			continue
		}
		if t.Is(cpg.LCallExpression) && (t.LocalName == "require" || t.LocalName == "assert") {
			return true
		}
		if isBranch(t) {
			for _, succ := range t.Out(cpg.EOG) {
				if succ.Is(cpg.LRollback) || c.q.ReachAny(succ, rollbackPred, cpg.EOG) {
					return true
				}
			}
		}
	}
	return false
}

// fieldWritableElsewhere reports whether fd is written in some function on a
// path that does not pass through the call.
func (c *Ctx) fieldWritableElsewhere(fd, call *cpg.Node) bool {
	for _, w := range fd.In(cpg.DFG) {
		fn := c.function(w)
		if fn == nil || isConstructor(fn) {
			continue
		}
		if fn != c.function(call) {
			return true
		}
		// Same function: does a path reach w without passing the call?
		if !c.q.PathExists(call, w, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
			return true
		}
	}
	return false
}

// dosExpensiveLoop (paper Listing 11): loops whose iteration count an
// attacker can inflate (user-controlled bound or very large literal bound)
// and whose body performs gas-expensive work (state writes or external
// calls).
func (c *Ctx) dosExpensiveLoop() []Finding {
	var out []Finding
	loops := append([]*cpg.Node{}, c.g.ByLabel(cpg.LForStatement)...)
	loops = append(loops, c.g.ByLabel(cpg.LWhileStatement)...)
	loops = append(loops, c.g.ByLabel(cpg.LDoStatement)...)
	for _, loop := range loops {
		body := c.loopBody(loop)
		expensive := false
		for n := range body.All() {
			if len(fieldWrites(n)) > 0 {
				expensive = true
				break
			}
			if n.Is(cpg.LCallExpression) && len(n.Out(cpg.INVOKES)) == 0 &&
				n.LocalName != "require" && n.LocalName != "assert" && n.LocalName != "revert" {
				expensive = true
				break
			}
		}
		if !expensive {
			continue
		}
		conds := loop.Out(cpg.CONDITION)
		if len(conds) == 0 {
			continue
		}
		cond := conds[0]
		attacker := false
		// Large literal bound.
		for src := range c.q.ReachRev(cond, cpg.DFG).All() {
			if src.Is(cpg.LLiteral) {
				if v, err := strconv.ParseFloat(strings.ReplaceAll(src.Value, "_", ""), 64); err == nil && v > 100 {
					if cond.Is(cpg.LBinaryOperator) && comparisonOp(cond.Operator) {
						attacker = true
					}
				}
			}
			// User-controlled bound.
			if src.Is(cpg.LParamVariableDecl) {
				fn := fnOfParam(src)
				if fn != nil && !isConstructor(fn) {
					attacker = true
				}
			}
			// Dynamic collection length (grows with attacker deposits).
			if strings.HasSuffix(src.Code, ".length") {
				for _, d := range src.Out(cpg.BASE) {
					for _, fd := range d.Out(cpg.REFERS_TO) {
						if fd.Is(cpg.LFieldDeclaration) && strings.Contains(fd.TypeName, "[") {
							attacker = true
						}
					}
				}
			}
		}
		if !attacker {
			continue
		}
		out = append(out, c.finding(loop, "attacker-inflatable loop performs gas-expensive operations"))
	}
	return dedupe(out)
}

func comparisonOp(op string) bool {
	switch op {
	case "<", "<=", ">", ">=":
		return true
	}
	return false
}

// loopBody returns the nodes on the loop's EOG cycle.
func (c *Ctx) loopBody(loop *cpg.Node) cpg.NodeSet {
	out := cpg.NewNodeSet(c.g)
	for n := range c.q.Reach(loop, cpg.EOG).All() {
		if n != loop && c.q.PathExists(n, loop, cpg.EOG) {
			out.Add(n)
		}
	}
	return out
}

// dosClearableCollection (paper Listing 13): a collection used to pay out
// ether can be reassigned outside the constructor; clearing or bloating it
// denies service.
func (c *Ctx) dosClearableCollection() []Finding {
	var out []Finding
	for _, bin := range c.g.ByLabel(cpg.LBinaryOperator) {
		if bin.Operator != "=" {
			continue
		}
		fn := c.function(bin)
		if fn == nil || isConstructor(fn) {
			continue
		}
		lhs := bin.Out(cpg.LHS)
		if len(lhs) == 0 {
			continue
		}
		// The write targets an array-typed field (whole-collection
		// assignment, not element update).
		if lhs[0].Is(cpg.LSubscriptExpression) {
			continue
		}
		var target *cpg.Node
		for _, fd := range lhs[0].Out(cpg.DFG) {
			if fd.Is(cpg.LFieldDeclaration) && strings.Contains(fd.TypeName, "[") &&
				!strings.Contains(fd.TypeName, "mapping") {
				target = fd
			}
		}
		if target == nil {
			continue
		}
		// The collection feeds an ether-moving call.
		used := false
		for t := range c.q.Reach(target, cpg.DFG).All() {
			if t.Is(cpg.LCallExpression) && c.isMoneyCall(t) {
				used = true
			}
			for _, parent := range t.In(cpg.ARGUMENTS) {
				if c.isMoneyCall(parent) {
					used = true
				}
			}
			for _, parent := range t.In(cpg.BASE) {
				if parent.Is(cpg.LCallExpression) && c.isMoneyCall(parent) {
					used = true
				}
			}
		}
		if !used {
			continue
		}
		out = append(out, c.finding(bin, "payout collection reassignable outside constructor"))
	}
	return dedupe(out)
}
