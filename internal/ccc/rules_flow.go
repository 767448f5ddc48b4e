package ccc

import (
	"repro/internal/cpg"
)

// reentrancy (paper Listing 17): an external call whose target the attacker
// can influence is followed — before the transaction's effects are final —
// by a write to contract state. The attacker re-enters during the call and
// observes stale state (the DAO pattern).
func (c *Ctx) reentrancy() []Finding {
	var out []Finding
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		if !c.isReentrantCall(call) {
			continue
		}
		fn := c.function(call)
		if fn == nil {
			continue
		}
		rec := c.contractOf[call.ID]
		// State write after the call (EOG|INVOKES|RETURNS), writing a field
		// of the same contract.
		var writeAfter *cpg.Node
		for n := range c.eogReach(call).All() {
			if n == call {
				continue
			}
			for _, fd := range fieldWrites(n) {
				if rec == nil || c.contractOf[fd.ID] == rec {
					writeAfter = n
				}
			}
			if writeAfter != nil {
				break
			}
		}
		if writeAfter == nil {
			continue
		}
		// Condition of relevancy: the callee base is attacker-influenced.
		if !c.attackerControlledBase(call) {
			continue
		}
		// Mitigation: a mutex — state read in a rollback-guarded branch
		// before the call and locked before the call.
		if c.reentrancyLocked(fn, call) {
			continue
		}
		out = append(out, c.finding(call, "state written after external call; reentrancy possible"))
	}
	return dedupe(out)
}

// isReentrantCall selects gas-forwarding external calls: low-level call /
// callcode / delegatecall, legacy .value() chains, calls with a {value:...}
// option, and unresolved member calls on external contracts.
func (c *Ctx) isReentrantCall(call *cpg.Node) bool {
	if !call.Is(cpg.LCallExpression) || len(call.Out(cpg.BASE)) == 0 {
		return false
	}
	// Emitted events are not calls.
	for _, p := range call.In(cpg.AST) {
		if p.Is(cpg.LEmitStatement) {
			return false
		}
	}
	switch call.LocalName {
	case "call", "callcode", "delegatecall", "value":
		return true
	case "transfer", "send":
		// 2300 gas stipend: not re-enterable.
		return false
	}
	if c.hasValueOption(call) {
		return true
	}
	// Unresolved member call on something external.
	if len(call.Out(cpg.INVOKES)) == 0 && !builtinMember[call.LocalName] {
		return true
	}
	return false
}

var builtinMember = map[string]bool{
	"push": true, "pop": true, "length": true, "balance": true,
	"encode": true, "encodePacked": true, "encodeWithSelector": true,
	"encodeWithSignature": true, "decode": true, "keccak256": true,
	"require": true, "assert": true, "revert": true, "add": true,
	"sub": true, "mul": true, "div": true,
}

// attackerControlledBase reports whether the receiver of the call is derived
// from msg.sender / tx.origin, or from an unconstrained address-typed
// parameter or field.
func (c *Ctx) attackerControlledBase(call *cpg.Node) bool {
	bases := call.Out(cpg.BASE)
	if len(bases) == 0 {
		return false
	}
	for _, base := range bases {
		for src := range c.q.ReachRev(base, cpg.DFG).All() {
			switch src.Code {
			case "msg.sender", "tx.origin":
				return true
			}
			if src.Is(cpg.LParamVariableDecl) && isAddressType(src.TypeName) {
				fn := fnOfParam(src)
				if fn != nil && !isConstructor(fn) {
					return true
				}
			}
			if src.Is(cpg.LFieldDeclaration) && isAddressType(src.TypeName) {
				// A field only written in the constructor is operator-
				// controlled; otherwise treat it as attacker-influenced.
				if c.fieldWrittenOutsideConstructor(src) {
					return true
				}
			}
		}
	}
	return false
}

func isAddressType(t string) bool {
	return t == "address" || t == "address payable" || t == ""
}

func (c *Ctx) fieldWrittenOutsideConstructor(fd *cpg.Node) bool {
	for _, w := range fd.In(cpg.DFG) {
		fn := c.function(w)
		if fn != nil && !isConstructor(fn) {
			return true
		}
	}
	return false
}

// reentrancyLocked detects the mutex mitigation: before the call there is a
// branch whose condition reads contract state, and every field it reads is
// also written before the call (lock acquisition). The verdict is a function
// of the set of fields read, never of the order a map yields them in: a
// balance check such as require(balances[msg.sender] >= amount) after a
// deposit reads a written field and an unwritten one, and is no lock.
func (c *Ctx) reentrancyLocked(fn, call *cpg.Node) bool {
	before := cpg.NewNodeSet(c.g)
	for n := range c.eogReach(fn).All() {
		if n != call && c.q.PathExists(n, call, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
			before.Add(n)
		}
	}
	writtenBefore := func(field *cpg.Node) bool {
		for _, w := range field.In(cpg.DFG) {
			if before.Has(w) {
				return true
			}
		}
		return false
	}
	for n := range before.All() {
		if !isBranch(n) {
			continue
		}
		fields, locked := 0, true
		for src := range c.q.ReachRev(n, cpg.DFG).All() {
			if src.Is(cpg.LFieldDeclaration) {
				fields++
				locked = locked && writtenBefore(src)
			}
		}
		if fields > 0 && locked {
			return true
		}
	}
	return false
}

// frontRunning (paper Listing 14): a transaction whose beneficial state
// change any sender (including a miner observing the mempool) can claim:
// either msg.sender is persisted with a sender-independent value, or ether
// flows to msg.sender with a sender-independent amount.
func (c *Ctx) frontRunning() []Finding {
	var out []Finding
	report := func(n, fn *cpg.Node, msg string) {
		if c.guardedByMsgSender(fn, n) {
			return
		}
		out = append(out, c.finding(n, msg))
	}

	for _, bin := range c.g.ByLabel(cpg.LBinaryOperator) {
		if bin.Operator != "=" {
			continue
		}
		fn := c.function(bin)
		if fn == nil || isConstructor(fn) {
			continue
		}
		lhs := bin.Out(cpg.LHS)
		rhs := bin.Out(cpg.RHS)
		if len(lhs) == 0 || len(rhs) == 0 {
			continue
		}
		// Only writes that persist to contract state are interesting.
		persists := false
		for t := range c.q.Reach(bin, cpg.DFG).All() {
			if t.Is(cpg.LFieldDeclaration) {
				persists = true
			}
		}
		if !persists {
			continue
		}
		senderKeyedSlot := c.subscriptSenderKeyed(lhs[0])
		rhsSenderDep := c.senderDependent(rhs[0])
		switch {
		case rhsSenderDep && !senderKeyedSlot:
			// Case 1: a global slot records the sender's identity
			// (winner = msg.sender); any transaction sender — a miner in
			// particular — can claim it.
			report(bin, fn, "global state records msg.sender; claimable by any transaction sender")
		case senderKeyedSlot && !rhsSenderDep && !isZeroLiteral(rhs[0]):
			// Case 2: a sender-keyed slot receives a benefit whose value is
			// independent of the sender (credit[msg.sender] = bounty).
			report(bin, fn, "sender-keyed state change with sender-independent value; front-runnable")
		}
	}

	// Ether sent to msg.sender with sender-independent amounts.
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		if !c.isMoneyCall(call) {
			continue
		}
		fn := c.function(call)
		if fn == nil || isConstructor(fn) {
			continue
		}
		toSender := false
		for _, base := range call.Out(cpg.BASE) {
			if base.Code == "msg.sender" {
				toSender = true
			}
			for src := range c.q.ReachRev(base, cpg.DFG).All() {
				if src.Code == "msg.sender" {
					toSender = true
				}
			}
		}
		if !toSender {
			continue
		}
		amountDependent := false
		for _, a := range call.Out(cpg.ARGUMENTS) {
			if c.senderDependent(a) {
				amountDependent = true
			}
		}
		for _, callee := range call.Out(cpg.CALLEE) {
			if !callee.Is(cpg.LSpecifiedExpression) {
				continue
			}
			for _, kv := range callee.Out(cpg.SPECIFIERS) {
				for _, v := range kv.Out(cpg.VALUE) {
					if c.senderDependent(v) {
						amountDependent = true
					}
				}
			}
		}
		if amountDependent {
			continue
		}
		report(call, fn, "payout to msg.sender claimable by front-running")
	}
	return dedupe(out)
}

// subscriptSenderKeyed reports whether the write target is indexed by
// msg.sender (balances[msg.sender] = ...).
func (c *Ctx) subscriptSenderKeyed(lhs *cpg.Node) bool {
	if !lhs.Is(cpg.LSubscriptExpression) {
		return false
	}
	for _, idx := range lhs.Out(cpg.SUBSCRIPT_EXPRESSION) {
		if idx.Code == "msg.sender" || c.senderDependent(idx) {
			return true
		}
	}
	return false
}

func isZeroLiteral(n *cpg.Node) bool {
	return n.Is(cpg.LLiteral) && (n.Value == "0" || n.Value == "false")
}

// senderDependent reports whether the value depends on msg.sender/msg.value
// within the current transaction. The reverse data-flow walk stops at field
// declarations: storage written by other transactions does not make a value
// sender-dependent.
func (c *Ctx) senderDependent(n *cpg.Node) bool {
	if n == nil {
		return false
	}
	seen := cpg.NewNodeSet(c.g)
	seen.Add(n)
	stack := []*cpg.Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch cur.Code {
		case "msg.sender", "msg.value":
			return true
		}
		if cur.Is(cpg.LFieldDeclaration) {
			continue // storage boundary
		}
		for _, p := range cur.In(cpg.DFG) {
			if seen.Add(p) {
				stack = append(stack, p)
			}
		}
	}
	return false
}

// uncheckedLowLevelCall (paper Listing 10): low-level calls whose boolean
// result is neither branched on, returned, nor asserted, while execution
// continues and persists.
func (c *Ctx) uncheckedLowLevelCall() []Finding {
	var out []Finding
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		name := call.LocalName
		isLow := name == "send" || lowLevelCallNames[name]
		if name == "value" || name == "gas" {
			// Legacy .value()/.gas() chain over a low-level call.
			isLow = c.q.ReachAny(call, cpgLocalName("call"), cpg.BASE, cpg.CALLEE)
		}
		if !isLow {
			continue
		}
		if name == "transfer" {
			continue // throws on failure
		}
		if c.function(call) == nil {
			continue
		}
		// Result checked? The call's value flows into a branch, a return,
		// a require/assert argument, or an assignment that is later used.
		checked := false
		for t := range c.q.Reach(call, cpg.DFG).All() {
			if t == call {
				continue
			}
			if isBranch(t) || t.Is(cpg.LReturnStatement) {
				checked = true
				break
			}
			if t.Is(cpg.LCallExpression) && (t.LocalName == "require" || t.LocalName == "assert") {
				checked = true
				break
			}
		}
		if checked {
			continue
		}
		// Execution persists after the call.
		if !c.persists(call) {
			continue
		}
		out = append(out, c.finding(call, "return value of low-level call ignored"))
	}
	return dedupe(out)
}

func cpgLocalName(name string) func(*cpg.Node) bool {
	return func(n *cpg.Node) bool { return n.LocalName == name }
}
