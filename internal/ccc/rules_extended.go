package ccc

import (
	"strings"

	"repro/internal/cpg"
)

// Extended detectors: the paper's future-work direction of growing the query
// set ("we will extend the number of vulnerability searches"). These four
// rules are not part of the 17-query evaluation set; enable them with
// Analyzer.WithExtendedRules or ExtendedRules().

// ExtendedRules returns the 17 paper rules plus the extension set.
func ExtendedRules() []Rule {
	return append(Rules(),
		Rule{"arbitrary-delegatecall", AccessControl, (*Ctx).arbitraryDelegatecall},
		Rule{"division-before-multiplication", Arithmetic, (*Ctx).divisionBeforeMultiplication},
		Rule{"missing-zero-address-check", UnknownUnknowns, (*Ctx).missingZeroAddressCheck},
		Rule{"suicidal-constructor-typo", AccessControl, (*Ctx).constructorTypo},
	)
}

// WithExtendedRules switches the analyzer to the extended rule set.
func (a *Analyzer) WithExtendedRules() *Analyzer {
	a.Rules = ExtendedRules()
	return a
}

// arbitraryDelegatecall: a delegatecall whose target address comes from a
// function parameter of a non-internal function — the generalized Parity
// pattern outside default functions.
func (c *Ctx) arbitraryDelegatecall() []Finding {
	var out []Finding
	for _, call := range c.g.ByLabel(cpg.LCallExpression) {
		name := strings.ToUpper(call.LocalName)
		if name != "DELEGATECALL" && name != "CALLCODE" {
			continue
		}
		fn := c.function(call)
		if fn == nil || fn.LocalName == "" {
			continue // default functions are the base rule's territory
		}
		controlled := false
		for _, base := range call.Out(cpg.BASE) {
			for src := range c.q.ReachRev(base, cpg.DFG).All() {
				if src.Is(cpg.LParamVariableDecl) {
					if pf := fnOfParam(src); pf != nil && !isInternal(pf) && !isConstructor(pf) {
						controlled = true
					}
				}
			}
		}
		if !controlled || !c.persists(call) {
			continue
		}
		if c.guardedByMsgSender(fn, call) {
			continue
		}
		out = append(out, c.finding(call, "delegatecall target controlled by caller-supplied address"))
	}
	return dedupe(out)
}

// divisionBeforeMultiplication: integer division whose result feeds a
// multiplication — precision is lost before it is amplified.
func (c *Ctx) divisionBeforeMultiplication() []Finding {
	var out []Finding
	for _, div := range c.g.ByLabel(cpg.LBinaryOperator) {
		if div.Operator != "/" {
			continue
		}
		for t := range c.q.Reach(div, cpg.DFG).All() {
			if t == div || !t.Is(cpg.LBinaryOperator) {
				continue
			}
			if t.Operator == "*" || t.Operator == "*=" {
				out = append(out, c.finding(div, "division before multiplication loses precision"))
				break
			}
		}
	}
	return dedupe(out)
}

// missingZeroAddressCheck: an address parameter persisted into an ownership-
// like field without any comparison guarding it — bricking the contract with
// address(0) is one typo away.
func (c *Ctx) missingZeroAddressCheck() []Finding {
	var out []Finding
	for _, p := range c.g.ByLabel(cpg.LParamVariableDecl) {
		if !strings.HasPrefix(p.TypeName, "address") {
			continue
		}
		fn := fnOfParam(p)
		if fn == nil || isConstructor(fn) || isInternal(fn) {
			continue
		}
		var field *cpg.Node
		for t := range c.q.Reach(p, cpg.DFG).All() {
			if t.Is(cpg.LFieldDeclaration) && strings.HasPrefix(t.TypeName, "address") {
				field = t
			}
		}
		if field == nil {
			continue
		}
		// Any comparison consuming the parameter counts as a check.
		checked := false
		for t := range c.q.Reach(p, cpg.DFG).All() {
			if t.Is(cpg.LBinaryOperator) && (t.Operator == "==" || t.Operator == "!=") {
				checked = true
			}
		}
		if checked {
			continue
		}
		out = append(out, c.finding(p, "address parameter stored to state without zero-address check"))
	}
	return dedupe(out)
}

// constructorTypo: a public function whose name differs from its contract's
// name only by letter case — the classic Rubixi bug where a renamed contract
// leaves its old-style constructor publicly callable.
func (c *Ctx) constructorTypo() []Finding {
	var out []Finding
	for _, rec := range c.g.ByLabel(cpg.LRecordDeclaration) {
		if rec.Kind != "contract" || rec.LocalName == "" {
			continue
		}
		for _, child := range rec.Out(cpg.AST) {
			if !child.Is(cpg.LFunctionDeclaration) || child.Is(cpg.LConstructorDecl) {
				continue
			}
			// Identical names are old-style constructors (already labeled
			// ConstructorDeclaration); only case-insensitive near-misses
			// indicate a renamed contract.
			if child.LocalName == "" || child.LocalName == rec.LocalName ||
				!strings.EqualFold(child.LocalName, rec.LocalName) {
				continue
			}
			writes := false
			for n := range c.eogReach(child).All() {
				if len(fieldWrites(n)) > 0 {
					writes = true
				}
			}
			if !writes {
				continue
			}
			out = append(out, c.finding(child, "function name matches contract name only by case; orphaned constructor is publicly callable"))
		}
	}
	return dedupe(out)
}
