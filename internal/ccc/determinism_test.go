package ccc_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ccc"
	"repro/internal/dataset"
)

// The two snippets of GenerateQA{Seed: 1, Scale: 0.11} on which the
// reentrancy rule used to answer by map iteration order: the guard before
// the call reads two fields, one written before the call (the deposit) and
// one not, and the rule kept whichever the map yielded last.
var guardReadsTwoFields = []string{
	`balances[msg.sender] += msg.value;
require(balances[msg.sender] >= weiToWithdraw);
msg.sender.call{value: weiToWithdraw}("");
balances[msg.sender] -= weiToWithdraw;`,

	`		emit Trace13437(65);
		slot89711 = 6968;
credit[receivr] += msg.value;
if (credit[msg.sender] >= units) {
			msg.sender.call{value: units}("");
			credit[msg.sender] -= units;
		}
require(credit[msg.sender] >= units);`,
}

// answer is everything AnalyzeSource says about src, as one string.
func answer(src string) string {
	rep, err := ccc.AnalyzeSource(src)
	return fmt.Sprint(rep.Findings, rep.Truncated, err)
}

// TestAnalyzeSourceGivesOneAnswer analyses every snippet of the generated
// Q&A pool 16 times and demands the same findings each time: Tables 1–3
// count them. A balance check is not a mutex, so the two fixed cases must
// also keep their reentrancy finding.
func TestAnalyzeSourceGivesOneAnswer(t *testing.T) {
	const passes = 16
	for i, src := range guardReadsTwoFields {
		if rep, _ := ccc.AnalyzeSource(src); !rep.HasCategory(ccc.Reentrancy) {
			t.Errorf("fixed case %d: reentrancy not reported: %v", i, rep.Findings)
		}
	}
	scale := 0.11
	if testing.Short() {
		scale = 0.02
	}
	sources := slices.Clone(guardReadsTwoFields)
	for _, sn := range dataset.GenerateQA(dataset.QAConfig{Seed: 1, Scale: scale}).Snippets {
		sources = append(sources, sn.Source)
	}
	for _, src := range sources {
		first := answer(src)
		for pass := 1; pass < passes; pass++ {
			if got := answer(src); got != first {
				t.Errorf("pass %d disagrees with pass 0 on\n%s\n  pass 0: %s\n  pass %d: %s", pass, src, first, pass, got)
				break
			}
		}
	}
}
