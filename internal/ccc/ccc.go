// Package ccc implements the CPG Contract Checker: 17 rule-based
// vulnerability detectors over a Solidity code property graph, covering the
// DASP Top-10 categories. The detectors mirror the Cypher queries of the
// paper's Appendix B, each consisting of a base pattern, conditions of
// relevancy, and negated mitigation sub-patterns.
//
// CCC analyzes full contracts and incomplete snippets alike: the CPG
// frontend infers missing outer declarations, so every detector works on
// whatever hierarchy level the input provides.
package ccc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpg"
	"repro/internal/query"
)

// Category is a DASP Top-10 vulnerability category.
type Category string

// The ten DASP categories.
const (
	AccessControl    Category = "Access Control"
	Arithmetic       Category = "Arithmetic"
	BadRandomness    Category = "Bad Randomness"
	DenialOfService  Category = "Denial of Service"
	FrontRunning     Category = "Front Running"
	Reentrancy       Category = "Reentrancy"
	ShortAddresses   Category = "Short Addresses"
	TimeManipulation Category = "Time Manipulation"
	UncheckedCalls   Category = "Unchecked Low Level Calls"
	UnknownUnknowns  Category = "Unknown Unknowns"
)

// Categories lists all DASP categories in the paper's order (Table 6).
var Categories = []Category{
	Reentrancy, DenialOfService, FrontRunning, TimeManipulation,
	ShortAddresses, AccessControl, Arithmetic, UncheckedCalls,
	BadRandomness, UnknownUnknowns,
}

// Finding is one reported vulnerability instance.
type Finding struct {
	Rule     string
	Category Category
	Line     int
	Column   int
	Code     string
	Message  string
}

// String renders the finding as line:column [category/rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%d:%d [%s/%s] %s", f.Line, f.Column, f.Category, f.Rule, f.Message)
}

// Report aggregates the findings for one translation unit.
type Report struct {
	Findings []Finding
	// Truncated reports that at least one traversal hit its budget; the
	// caller may re-run with reduced path depth (phase-2 validation).
	Truncated bool
}

// Categories returns the distinct categories present in the report.
func (r Report) Categories() []Category {
	seen := map[Category]bool{}
	var out []Category
	for _, f := range r.Findings {
		if !seen[f.Category] {
			seen[f.Category] = true
			out = append(out, f.Category)
		}
	}
	return out
}

// HasCategory reports whether any finding belongs to the category.
func (r Report) HasCategory(c Category) bool {
	for _, f := range r.Findings {
		if f.Category == c {
			return true
		}
	}
	return false
}

// Rule is one named detector.
type Rule struct {
	Name     string
	Category Category
	Run      func(*Ctx) []Finding
}

// Rules returns all 17 detectors in a stable order.
func Rules() []Rule {
	return []Rule{
		{"access-control-state-write", AccessControl, (*Ctx).accessControlStateWrite},
		{"access-control-selfdestruct", AccessControl, (*Ctx).accessControlSelfdestruct},
		{"access-control-proxy-delegate", AccessControl, (*Ctx).defaultProxyDelegate},
		{"access-control-tx-origin", AccessControl, (*Ctx).txOriginBranch},
		{"arithmetic-overflow", Arithmetic, (*Ctx).arithmeticOverflow},
		{"bad-randomness", BadRandomness, (*Ctx).badRandomness},
		{"dos-failed-call-blocks-sends", DenialOfService, (*Ctx).dosCallBlocksSends},
		{"dos-failed-send-blocks-state", DenialOfService, (*Ctx).dosSendBlocksState},
		{"dos-expensive-loop", DenialOfService, (*Ctx).dosExpensiveLoop},
		{"dos-clearable-collection", DenialOfService, (*Ctx).dosClearableCollection},
		{"front-running", FrontRunning, (*Ctx).frontRunning},
		{"reentrancy", Reentrancy, (*Ctx).reentrancy},
		{"short-address-call", ShortAddresses, (*Ctx).shortAddressCall},
		{"short-address-state-write", ShortAddresses, (*Ctx).shortAddressStateWrite},
		{"time-manipulation", TimeManipulation, (*Ctx).timeManipulation},
		{"unchecked-low-level-call", UncheckedCalls, (*Ctx).uncheckedLowLevelCall},
		{"storage-pointer-overwrite", UnknownUnknowns, (*Ctx).storagePointerOverwrite},
	}
}

// Analyzer runs a configurable set of detectors.
type Analyzer struct {
	// Limits bounds graph traversals (phase-2 validation uses MaxDepth).
	Limits query.Limits
	// Only restricts the run to specific categories (nil = all).
	Only map[Category]bool
	// Rules to run; nil means Rules().
	Rules []Rule
}

// NewAnalyzer returns an analyzer running all detectors unbounded.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// OnlyCategories restricts the analyzer to the given categories. The study's
// validation phase re-checks contracts against exactly the category found in
// the snippet.
func (a *Analyzer) OnlyCategories(cats ...Category) *Analyzer {
	a.Only = make(map[Category]bool, len(cats))
	for _, c := range cats {
		a.Only[c] = true
	}
	return a
}

// AnalyzeSource parses src (snippet grammar), analyzes it and releases the
// graph.
func (a *Analyzer) AnalyzeSource(src string) (Report, error) {
	g, err := cpg.Parse(src)
	defer g.Release()
	if err != nil {
		return Report{}, err
	}
	return a.Analyze(g), nil
}

// Analyze runs the detectors over a built CPG.
func (a *Analyzer) Analyze(g *cpg.Graph) Report {
	ctx := newCtx(g, a.Limits)
	rules := a.Rules
	if rules == nil {
		rules = Rules()
	}
	var rep Report
	for _, r := range rules {
		if a.Only != nil && !a.Only[r.Category] {
			continue
		}
		for _, f := range r.Run(ctx) {
			f.Rule = r.Name
			f.Category = r.Category
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Truncated = ctx.q.BudgetHit()
	sort.Slice(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Line != rep.Findings[j].Line {
			return rep.Findings[i].Line < rep.Findings[j].Line
		}
		return rep.Findings[i].Rule < rep.Findings[j].Rule
	})
	return rep
}

// Analyze runs all detectors with default limits.
func Analyze(g *cpg.Graph) Report { return NewAnalyzer().Analyze(g) }

// AnalyzeSource parses and analyzes a snippet with default limits.
func AnalyzeSource(src string) (Report, error) { return NewAnalyzer().AnalyzeSource(src) }

// --- shared context ----------------------------------------------------------

// Ctx carries the query context and pre-computed taint sets shared by the
// detectors.
type Ctx struct {
	g *cpg.Graph
	q *query.Q

	msgSenderTaint cpg.NodeSet // forward DFG closure of msg.sender
	txOriginTaint  cpg.NodeSet
	msgDataNodes   []*cpg.Node
	timestampNodes []*cpg.Node

	containing []*cpg.Node // node ID -> enclosing FunctionDeclaration
	contractOf []*cpg.Node // node ID -> enclosing RecordDeclaration
}

func newCtx(g *cpg.Graph, lim query.Limits) *Ctx {
	c := &Ctx{
		g:          g,
		q:          query.NewLimited(g, lim),
		containing: make([]*cpg.Node, len(g.Nodes)),
		contractOf: make([]*cpg.Node, len(g.Nodes)),
	}
	var senders, origins []*cpg.Node
	for _, n := range g.Nodes {
		switch n.Code {
		case "msg.sender":
			senders = append(senders, n)
		case "tx.origin":
			origins = append(origins, n)
		case "msg.data":
			c.msgDataNodes = append(c.msgDataNodes, n)
		case "now", "block.timestamp":
			c.timestampNodes = append(c.timestampNodes, n)
		}
	}
	c.msgSenderTaint = c.q.ReachFrom(senders, cpg.DFG)
	c.txOriginTaint = c.q.ReachFrom(origins, cpg.DFG)

	// Containment via downward AST walk from functions and records: the
	// first function to reach a node owns it, the last record does.
	for _, fn := range g.ByLabel(cpg.LFunctionDeclaration) {
		for n := range c.q.Reach(fn, cpg.AST).All() {
			if c.containing[n.ID] == nil || n == fn {
				c.containing[n.ID] = fn
			}
		}
	}
	for _, rec := range g.ByLabel(cpg.LRecordDeclaration) {
		for n := range c.q.Reach(rec, cpg.AST).All() {
			c.contractOf[n.ID] = rec
		}
	}
	return c
}

func (c *Ctx) finding(n *cpg.Node, msg string) Finding {
	return Finding{Line: n.Pos.Line, Column: n.Pos.Column, Code: clip(n.Code), Message: msg}
}

func clip(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// function returns the FunctionDeclaration containing n, or nil.
func (c *Ctx) function(n *cpg.Node) *cpg.Node { return c.containing[n.ID] }

// isInternal reports whether the function header declares internal or
// private visibility (the queries' split(f.code,'{')[0] contains 'internal').
func isInternal(fn *cpg.Node) bool {
	header := fn.Code
	if i := strings.IndexByte(header, '{'); i >= 0 {
		header = header[:i]
	}
	return strings.Contains(header, "internal") || strings.Contains(header, "private")
}

func isConstructor(fn *cpg.Node) bool { return fn != nil && fn.Is(cpg.LConstructorDecl) }

// moneyCallNames are calls that move ether.
var moneyCallNames = map[string]bool{"transfer": true, "send": true, "call": true, "value": true}

// lowLevelCallNames are gas-forwarding external calls.
var lowLevelCallNames = map[string]bool{"call": true, "callcode": true, "delegatecall": true, "staticcall": true}

// isMoneyCall reports whether n is a call moving ether: transfer/send, a
// low-level call carrying a {value:...} option, or a legacy .value() chain.
func (c *Ctx) isMoneyCall(n *cpg.Node) bool {
	if !n.Is(cpg.LCallExpression) {
		return false
	}
	switch n.LocalName {
	case "transfer", "send":
		return true
	case "value":
		return true // legacy .value(x)(...) chain
	case "call":
		return true
	}
	// delegatecall/callcode execute foreign code but do not move value.
	return false
}

// hasValueOption reports whether the call carries a {value: ...} specifier.
func (c *Ctx) hasValueOption(call *cpg.Node) bool {
	for _, callee := range call.Out(cpg.CALLEE) {
		if !callee.Is(cpg.LSpecifiedExpression) {
			continue
		}
		for _, kv := range callee.Out(cpg.SPECIFIERS) {
			for _, k := range kv.Out(cpg.KEY) {
				if k.LocalName == "value" {
					return true
				}
			}
		}
	}
	return false
}

// eogReach is the forward EOG|INVOKES|RETURNS closure from n.
func (c *Ctx) eogReach(n *cpg.Node) cpg.NodeSet {
	return c.q.Reach(n, cpg.EOG, cpg.INVOKES, cpg.RETURNS)
}

// rollbackPred matches Rollback-labeled nodes.
func rollbackPred(n *cpg.Node) bool { return n.Is(cpg.LRollback) }

// isBranch reports whether n has at least two distinct EOG successors.
func isBranch(n *cpg.Node) bool {
	succs := n.Out(cpg.EOG)
	if len(succs) < 2 {
		return false
	}
	first := succs[0]
	for _, s := range succs[1:] {
		if s != first {
			return true
		}
	}
	return false
}

// guardedBy reports whether target is protected by a branch influenced by
// any node in taint: a branch node between fn and target whose condition is
// tainted and from which an alternative execution avoids target or rolls
// back. This is the recurring mitigation sub-pattern of the paper's queries.
func (c *Ctx) guardedBy(fn, target *cpg.Node, taint cpg.NodeSet) bool {
	if fn == nil || target == nil {
		return false
	}
	for m := range c.eogReach(fn).All() {
		if !taint.Has(m) || !isBranch(m) {
			continue
		}
		if m != target && !c.q.PathExists(m, target, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
			continue
		}
		if c.q.AnyTerminalAvoiding(m, target, rollbackPred, cpg.EOG, cpg.INVOKES, cpg.RETURNS) {
			return true
		}
	}
	return false
}

// guardedByMsgSender is guardedBy with the msg.sender taint (access control
// mitigations).
func (c *Ctx) guardedByMsgSender(fn, target *cpg.Node) bool {
	if c.guardedBy(fn, target, c.msgSenderTaint) {
		return true
	}
	return c.guardedBy(fn, target, c.txOriginTaint)
}

// persists reports whether execution after n can reach an exit that is not a
// Rollback (the query idiom "does not end in a Rollback node"). Besides
// plain terminals, a trailing require/assert whose only explicit successor
// is its attached Rollback node is an implicit success exit: the
// fall-through continuation simply has no explicit edge when nothing
// follows it. Nodes that flow *unconditionally* into a revert do not count.
func (c *Ctx) persists(n *cpg.Node) bool {
	for t := range c.eogReach(n).All() {
		if t.Is(cpg.LRollback) {
			continue
		}
		succs, allRollback := 0, true
		for _, k := range [...]cpg.EdgeKind{cpg.EOG, cpg.INVOKES, cpg.RETURNS} {
			for _, s := range t.Out(k) {
				succs++
				allRollback = allRollback && s.Is(cpg.LRollback)
			}
		}
		if succs == 0 {
			return true // explicit terminal
		}
		if allRollback && t.Is(cpg.LCallExpression) &&
			(t.LocalName == "require" || t.LocalName == "assert") {
			return true // conditional rollback at the end of the function
		}
	}
	return false
}

// fieldWrites returns field declarations written by node n (direct DFG edge
// from n into a FieldDeclaration).
func fieldWrites(n *cpg.Node) []*cpg.Node {
	var out []*cpg.Node
	for _, t := range n.Out(cpg.DFG) {
		if t.Is(cpg.LFieldDeclaration) {
			out = append(out, t)
		}
	}
	return out
}

// paramSources returns the ParamVariableDeclarations in the reverse DFG
// closure of n whose functions are neither constructors nor internal.
func (c *Ctx) paramSources(n *cpg.Node) []*cpg.Node {
	var out []*cpg.Node
	for src := range c.q.ReachRev(n, cpg.DFG).All() {
		if !src.Is(cpg.LParamVariableDecl) {
			continue
		}
		fn := fnOfParam(src)
		if fn == nil || isConstructor(fn) || isInternal(fn) {
			continue
		}
		out = append(out, src)
	}
	return out
}

func fnOfParam(p *cpg.Node) *cpg.Node {
	for _, f := range p.In(cpg.PARAMETERS) {
		return f
	}
	return nil
}
