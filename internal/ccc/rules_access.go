package ccc

import (
	"strings"

	"repro/internal/cpg"
)

// accessControlStateWrite (paper Listing 3): unrestricted writes to a state
// variable that is used for access control (compared against msg.sender).
func (c *Ctx) accessControlStateWrite() []Finding {
	// Fields used for access control: compared to msg.sender with ==.
	acFields := cpg.NewNodeSet(c.g)
	for _, bin := range c.g.ByLabel(cpg.LBinaryOperator) {
		if bin.Operator != "==" && bin.Operator != "!=" {
			continue
		}
		sides := append(bin.Out(cpg.LHS), bin.Out(cpg.RHS)...)
		var hasSender bool
		var fields []*cpg.Node
		for _, s := range sides {
			if s.Code == "msg.sender" {
				hasSender = true
			}
			for _, d := range s.Out(cpg.REFERS_TO) {
				if d.Is(cpg.LFieldDeclaration) {
					fields = append(fields, d)
				}
			}
		}
		if hasSender {
			for _, f := range fields {
				acFields.Add(f)
			}
		}
	}
	if acFields.Len() == 0 {
		return nil
	}

	var out []Finding
	for _, fn := range c.g.ByLabel(cpg.LFunctionDeclaration) {
		if isConstructor(fn) || isInternal(fn) {
			continue
		}
		for wN := range c.eogReach(fn).All() {
			if c.function(wN) != fn {
				continue
			}
			wrote := false
			for _, fd := range fieldWrites(wN) {
				if acFields.Has(fd) {
					wrote = true
				}
			}
			if !wrote || !c.persists(wN) {
				continue
			}
			// Writes of msg.sender guarded by a msg.sender comparison are the
			// ownership-transfer idiom; unguarded writes are findings.
			if c.guardedByMsgSender(fn, wN) {
				continue
			}
			out = append(out, c.finding(wN, "state variable used for access control can be overwritten without authorization"))
		}
	}
	return dedupe(out)
}

// accessControlSelfdestruct (paper Listing 4): reachable selfdestruct/suicide
// without a caller check.
func (c *Ctx) accessControlSelfdestruct() []Finding {
	var out []Finding
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		name := strings.ToUpper(call.LocalName)
		if name != "SELFDESTRUCT" && name != "SUICIDE" {
			continue
		}
		fn := c.function(call)
		if fn == nil || !c.persists(call) {
			continue
		}
		if c.guardedByMsgSender(fn, call) {
			continue
		}
		out = append(out, c.finding(call, "contract can be destroyed by any caller"))
	}
	return out
}

// defaultProxyDelegate (paper Listing 12 / Section 4.4): a default function
// relays msg.data through delegatecall/callcode without sanitizing the call
// target, the Parity-wallet pattern.
func (c *Ctx) defaultProxyDelegate() []Finding {
	var out []Finding
	for _, fn := range c.g.ByLabel(cpg.LFunctionDeclaration) {
		if fn.LocalName != "" || isConstructor(fn) {
			continue // only default (fallback) functions
		}
		for call := range c.eogReach(fn).All() {
			if !call.Is(cpg.LCallExpression) {
				continue
			}
			name := strings.ToUpper(call.LocalName)
			if name != "DELEGATECALL" && name != "CALLCODE" {
				continue
			}
			if !c.persists(call) {
				continue
			}
			// Condition of relevancy: msg.data controls the call target.
			if !c.msgDataFeeds(call) {
				continue
			}
			// Mitigation: a check on msg.data content on the path with an
			// alternative that avoids the call or rolls back. Flows through
			// msg.data.length do not count (that guards short addresses,
			// not the call target).
			if c.guardedBy(fn, call, c.msgDataContentTaint()) {
				continue
			}
			out = append(out, c.finding(call, "default function relays unsanitized msg.data via delegatecall"))
		}
	}
	return dedupe(out)
}

// msgDataFeeds reports whether msg.data appears as (or flows into) an
// argument of the call.
func (c *Ctx) msgDataFeeds(call *cpg.Node) bool {
	for _, a := range call.Out(cpg.ARGUMENTS) {
		if a.Code == "msg.data" {
			return true
		}
		for src := range c.q.ReachRev(a, cpg.DFG).All() {
			if src.Code == "msg.data" {
				return true
			}
		}
	}
	return false
}

// msgDataContentTaint is the forward DFG closure of msg.data excluding flows
// that pass through msg.data.length.
func (c *Ctx) msgDataContentTaint() cpg.NodeSet {
	taint := cpg.NewNodeSet(c.g)
	var stack []*cpg.Node
	for _, src := range c.msgDataNodes {
		taint.Add(src)
		stack = append(stack, src)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.Out(cpg.DFG) {
			if t.Code != "msg.data.length" && taint.Add(t) {
				stack = append(stack, t)
			}
		}
	}
	return taint
}

// txOriginBranch (paper Listing 19): tx.origin compared against stored state
// for branching decisions; phishing-style authorization bypass.
func (c *Ctx) txOriginBranch() []Finding {
	var out []Finding
	for _, n := range c.g.Nodes {
		if !isBranch(n) && !n.Is(cpg.LBinaryOperator) {
			continue
		}
		// n receives data flow from tx.origin and from a field reference.
		if !c.txOriginTaint.Has(n) || n.Code == "tx.origin" {
			continue
		}
		fromField := false
		for src := range c.q.ReachRev(n, cpg.DFG).All() {
			for _, d := range src.Out(cpg.REFERS_TO) {
				if d.Is(cpg.LFieldDeclaration) {
					fromField = true
				}
			}
		}
		if !fromField {
			continue
		}
		// Branching use: n itself branches or flows into a branching node.
		branches := isBranch(n)
		if !branches {
			for t := range c.q.Reach(n, cpg.DFG).All() {
				if isBranch(t) {
					branches = true
					break
				}
			}
		}
		if !branches {
			continue
		}
		// tx.origin != msg.sender is a legitimate anti-contract check.
		if eq, ok := comparisonOf(n); ok {
			if strings.Contains(eq, "msg.sender") {
				continue
			}
		}
		out = append(out, c.finding(n, "tx.origin used for authorization branching"))
	}
	return dedupe(out)
}

// comparisonOf returns the code of the comparison node n participates in.
func comparisonOf(n *cpg.Node) (string, bool) {
	if n.Is(cpg.LBinaryOperator) {
		return n.Code, true
	}
	return "", false
}

// dedupe removes duplicate findings at the same location for the same rule.
func dedupe(fs []Finding) []Finding {
	type key struct {
		line, col int
		msg       string
	}
	seen := map[key]bool{}
	var out []Finding
	for _, f := range fs {
		k := key{f.Line, f.Column, f.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}
