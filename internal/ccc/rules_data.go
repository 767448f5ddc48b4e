package ccc

import (
	"strings"

	"repro/internal/cpg"
)

// badRandomness (paper Listing 7): miner-influenceable entropy sources used
// to derive randomness that drives returns, persisted state or ether
// transfers.
var randomnessSources = map[string]bool{
	"block.timestamp": true, "block.number": true,
	"block.difficulty": true, "block.coinbase": true, "block.prevrandao": true,
}

func (c *Ctx) badRandomness() []Finding {
	var out []Finding
	for _, r := range c.g.Nodes {
		isSource := randomnessSources[r.Code] ||
			(r.Is(cpg.LCallExpression) && r.LocalName == "blockhash")
		if !isSource {
			continue
		}
		if c.entropySinks(r, true) {
			out = append(out, c.finding(r, "predictable block property used as randomness source"))
		}
	}
	return dedupe(out)
}

// timeManipulation (paper Listing 18): now/block.timestamp influencing
// returns, external calls, persisted state, or branches that gate value
// transfers — the miner picks the timestamp.
func (c *Ctx) timeManipulation() []Finding {
	var out []Finding
	for _, r := range c.timestampNodes {
		if c.entropySinks(r, false) {
			out = append(out, c.finding(r, "block timestamp influences outcome; miners control it"))
		}
	}
	return dedupe(out)
}

// entropySinks implements the shared sink conditions of Listings 7 and 18:
// the source value reaches (a) a return statement (of a "rand" function when
// randRequired), (b) a write-only field, (c) an ether-moving call
// structurally or via arguments, or (d) a branch where only one side reaches
// a call/rollback.
func (c *Ctx) entropySinks(r *cpg.Node, randRequired bool) bool {
	for t := range c.q.Reach(r, cpg.DFG).All() {
		if t == r {
			continue
		}
		// (a) flows into a return.
		if t.Is(cpg.LReturnStatement) {
			fn := c.function(t)
			if !randRequired {
				return true
			}
			if fn != nil && strings.Contains(strings.ToLower(fn.Code), "rand") {
				return true
			}
		}
		// (b) persisted into a field.
		if t.Is(cpg.LFieldDeclaration) {
			if randRequired {
				// Listing 7 requires a write-only seed field.
				if len(t.Out(cpg.DFG)) == 0 {
					return true
				}
			} else {
				return true
			}
		}
		// (c) influences an ether transfer or unresolved external call.
		if t.Is(cpg.LCallExpression) {
			if c.isMoneyCall(t) {
				return true
			}
			if !randRequired && len(t.Out(cpg.INVOKES)) == 0 &&
				t.LocalName != "require" && t.LocalName != "assert" && t.LocalName != "revert" {
				return true
			}
		}
		// (d) the source decides a branch that conditionally performs a
		// transfer or rollback (one arm contains it, the other does not).
		if t.Is(cpg.LIfStatement) || t.Is(cpg.LConditionalExpression) {
			var arms []bool
			conds := t.Out(cpg.CONDITION)
			for _, child := range t.Out(cpg.AST) {
				if len(conds) > 0 && child == conds[0] {
					continue
				}
				contains := false
				for n := range c.q.Reach(child, cpg.AST).All() {
					if n.Is(cpg.LRollback) || (n.Is(cpg.LCallExpression) && c.isMoneyCall(n)) {
						contains = true
					}
				}
				arms = append(arms, contains)
			}
			// Conditional effect: some arm (or the implicit empty arm)
			// differs from another.
			any, all := false, true
			for _, a := range arms {
				any = any || a
				all = all && a
			}
			if any && (!all || len(arms) == 1) {
				return true
			}
		}
		if isBranch(t) && !t.Is(cpg.LIfStatement) {
			var intSucc, otherSucc bool
			for _, succ := range t.Out(cpg.EOG) {
				reachesInt := succ.Is(cpg.LRollback) || c.q.ReachAny(succ, func(n *cpg.Node) bool {
					return n.Is(cpg.LRollback) || (n.Is(cpg.LCallExpression) && c.isMoneyCall(n))
				}, cpg.EOG)
				if reachesInt {
					intSucc = true
				} else {
					otherSucc = true
				}
			}
			if intSucc && otherSucc {
				return true
			}
		}
	}
	return false
}

// arithmeticOverflow (paper Listing 16): additive/multiplicative operations
// on externally supplied values whose results persist or gate value
// transfers, without a bounds check that would reject wrapped values.
var overflowOps = map[string]bool{"+": true, "+=": true, "-": true, "-=": true, "*": true, "*=": true}

func (c *Ctx) arithmeticOverflow() []Finding {
	var out []Finding
	for _, b := range c.g.ByLabel(cpg.LBinaryOperator) {
		if !overflowOps[b.Operator] {
			continue
		}
		fn := c.function(b)
		if fn == nil || isConstructor(fn) {
			continue
		}
		// Condition of relevancy 1: an externally controllable parameter
		// flows into the operation.
		if len(c.paramSources(b)) == 0 {
			continue
		}
		// Condition of relevancy 2: the result is persisted, compared in a
		// rollback guard, or used in a call/value context.
		if !c.arithmeticResultMatters(b) {
			continue
		}
		// Mitigation: a bounds comparison data-related to the operation
		// whose failing side rolls back or avoids the operation.
		if c.boundsChecked(fn, b) {
			continue
		}
		out = append(out, c.finding(b, "arithmetic on external input can overflow or underflow"))
	}
	return dedupe(out)
}

func (c *Ctx) arithmeticResultMatters(b *cpg.Node) bool {
	for t := range c.q.Reach(b, cpg.DFG).All() {
		if t == b {
			continue
		}
		if t.Is(cpg.LFieldDeclaration) {
			return true
		}
		if t.Is(cpg.LCallExpression) && len(t.Out(cpg.INVOKES)) == 0 &&
			t.LocalName != "require" && t.LocalName != "assert" {
			return true
		}
		for _, parent := range t.In(cpg.VALUE) {
			if parent.Is(cpg.LKeyValueExpression) {
				return true
			}
		}
	}
	// Direct argument of an unresolved call.
	for _, parent := range b.In(cpg.ARGUMENTS) {
		if len(parent.Out(cpg.INVOKES)) == 0 && parent.LocalName != "require" && parent.LocalName != "assert" {
			return true
		}
	}
	return false
}

// boundsChecked looks for a comparison sharing data with the arithmetic
// operation where the comparison guards a rollback or skips the operation.
// This covers require(x >= y) before/after subtraction, SafeMath-style
// assert(c >= a), and if (...) revert patterns.
func (c *Ctx) boundsChecked(fn, b *cpg.Node) bool {
	// Operands and result of the arithmetic op.
	related := c.q.ReachRev(b, cpg.DFG)
	for t := range c.q.Reach(b, cpg.DFG).All() {
		related.Add(t)
	}
	for _, cond := range c.g.ByLabel(cpg.LBinaryOperator) {
		if !comparisonOp(cond.Operator) && cond.Operator != "==" {
			continue
		}
		if c.function(cond) != fn && !sharesCallChain(c, cond, fn) {
			continue
		}
		// The comparison relates to the arithmetic data.
		dataRelated := related.Has(cond)
		for src := range c.q.ReachRev(cond, cpg.DFG).All() {
			if related.Has(src) {
				dataRelated = true
				break
			}
		}
		if !dataRelated {
			continue
		}
		// The comparison feeds a rollback guard or a branch avoiding b.
		for t := range c.q.Reach(cond, cpg.DFG).All() {
			if t.Is(cpg.LCallExpression) && (t.LocalName == "require" || t.LocalName == "assert") {
				return true
			}
			if isBranch(t) && c.q.AnyTerminalAvoiding(t, b, rollbackPred, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
				return true
			}
		}
	}
	return false
}

// sharesCallChain reports whether cond's function is invoked from fn
// (SafeMath helpers live in other functions).
func sharesCallChain(c *Ctx, cond, fn *cpg.Node) bool {
	condFn := c.function(cond)
	if condFn == nil {
		return false
	}
	for _, call := range condFn.In(cpg.INVOKES) {
		if c.function(call) == fn {
			return true
		}
	}
	return false
}

// shortAddressCall (paper Listing 5): an ether transfer whose amount comes
// from the final parameter while an address parameter precedes it. A
// truncated address shifts the amount bits (padding attack) unless
// msg.data.length is validated.
func (c *Ctx) shortAddressCall() []Finding {
	var out []Finding
	for _, fn := range c.g.ByLabel(cpg.LFunctionDeclaration) {
		addrIdx, lastParam := c.shortAddressParams(fn)
		if lastParam == nil {
			continue
		}
		for call := range c.eogReach(fn).All() {
			if !call.Is(cpg.LCallExpression) || !c.isMoneyCall(call) {
				continue
			}
			feeds := false
			for _, a := range call.Out(cpg.ARGUMENTS) {
				if c.q.ReachRev(a, cpg.DFG).Has(lastParam) {
					feeds = true
				}
			}
			for _, callee := range call.Out(cpg.CALLEE) {
				if !callee.Is(cpg.LSpecifiedExpression) {
					continue
				}
				for _, kv := range callee.Out(cpg.SPECIFIERS) {
					for _, v := range kv.Out(cpg.VALUE) {
						if c.q.ReachRev(v, cpg.DFG).Has(lastParam) {
							feeds = true
						}
					}
				}
			}
			if !feeds {
				continue
			}
			if c.msgDataLengthChecked(fn) {
				continue
			}
			out = append(out, c.finding(call, "amount from last parameter after address parameter; short-address padding risk"))
			_ = addrIdx
		}
	}
	return dedupe(out)
}

// shortAddressStateWrite (paper Listing 6): the final parameter after an
// address parameter is persisted to state without a msg.data.length check.
func (c *Ctx) shortAddressStateWrite() []Finding {
	var out []Finding
	for _, fn := range c.g.ByLabel(cpg.LFunctionDeclaration) {
		_, lastParam := c.shortAddressParams(fn)
		if lastParam == nil {
			continue
		}
		persisted := false
		for t := range c.q.Reach(lastParam, cpg.DFG).All() {
			if t.Is(cpg.LFieldDeclaration) {
				persisted = true
			}
		}
		if !persisted || c.msgDataLengthChecked(fn) {
			continue
		}
		out = append(out, c.finding(lastParam, "last parameter after address parameter persisted without msg.data.length check"))
	}
	return dedupe(out)
}

// shortAddressParams returns the index of an address-typed parameter and the
// final parameter if the final parameter comes after the address parameter.
func (c *Ctx) shortAddressParams(fn *cpg.Node) (int, *cpg.Node) {
	if isInternal(fn) || isConstructor(fn) {
		return -1, nil
	}
	params := fn.Out(cpg.PARAMETERS)
	if len(params) < 2 {
		return -1, nil
	}
	addrIdx := -1
	for _, p := range params {
		if strings.HasPrefix(p.TypeName, "address") && p.Index >= 0 {
			addrIdx = p.Index
		}
	}
	if addrIdx < 0 {
		return -1, nil
	}
	var last *cpg.Node
	for _, p := range params {
		if last == nil || p.Index > last.Index {
			last = p
		}
	}
	if last == nil || last.Index <= addrIdx || strings.HasPrefix(last.TypeName, "address") {
		return -1, nil
	}
	return addrIdx, last
}

func (c *Ctx) msgDataLengthChecked(fn *cpg.Node) bool {
	for n := range c.eogReach(fn).All() {
		if n.Code == "msg.data.length" {
			return true
		}
		for src := range c.q.ReachRev(n, cpg.DFG).All() {
			if src.Code == "msg.data.length" {
				return true
			}
		}
	}
	return false
}

// storagePointerOverwrite (paper Listing 15): uninitialized local storage
// structs/arrays alias storage slot 0; writes through them silently corrupt
// state variables.
func (c *Ctx) storagePointerOverwrite() []Finding {
	// Struct type names declared in the unit.
	structNames := map[string]bool{}
	for _, rec := range c.g.ByLabel(cpg.LRecordDeclaration) {
		if rec.Kind == "struct" {
			structNames[rec.LocalName] = true
		}
	}
	var out []Finding
	for _, v := range c.g.ByLabel(cpg.LVariableDeclaration) {
		if v.Is(cpg.LParamVariableDecl) || v.Is(cpg.LFieldDeclaration) {
			continue
		}
		// Explicit memory/calldata declarations are safe.
		if strings.Contains(v.Code, "memory") || strings.Contains(v.Code, "calldata") {
			continue
		}
		// Reference types only: arrays or declared structs.
		isRef := strings.Contains(v.TypeName, "[") || structNames[baseType(v.TypeName)]
		if !isRef {
			continue
		}
		// No initializer...
		if len(v.Out(cpg.INITIALIZER)) > 0 {
			continue
		}
		// ...but written afterwards outside a constructor.
		written := false
		for _, w := range v.In(cpg.DFG) {
			fn := c.function(w)
			if fn != nil && !isConstructor(fn) {
				written = true
			}
		}
		if !written {
			continue
		}
		out = append(out, c.finding(v, "uninitialized local storage reference; writes overwrite state variables"))
	}
	return dedupe(out)
}

func baseType(t string) string {
	if i := strings.IndexByte(t, '['); i >= 0 {
		t = t[:i]
	}
	return strings.TrimSpace(t)
}
