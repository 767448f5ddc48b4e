package pipeline

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/dataset"
)

// sharedResult executes a small but statistically meaningful study once and
// shares it across tests: seed 1 at scale 0.015, under -short too (the run
// takes about half a second), so TestReproductionGolden pins one set of
// numbers.
var shared *Result

func sharedResult(t *testing.T) *Result {
	t.Helper()
	if shared == nil {
		cfg := DefaultConfig()
		cfg.Scale = 0.015
		shared = Run(cfg)
	}
	return shared
}

// TestReproductionGolden pins the study's headline numbers at seed 1, scale
// 0.015: the Table 4 funnel per site, the Table 5 correlations, the Table 7
// funnel and the Table 8 validation sample. The clone map behind Tables 5–8
// runs through service.Corpus.MatchTopK, so a refactor of the match path that
// changes any served id changes these. Update them only with a reason.
func TestReproductionGolden(t *testing.T) {
	res := sharedResult(t)

	table4 := map[dataset.Site]FunnelStats{
		dataset.StackOverflow: {Posts: 110, Snippets: 193, Solidity: 126, Parsable: 99, StrictParsable: 54, Unique: 97},
		dataset.EthereumSE:    {Posts: 274, Snippets: 436, Solidity: 281, Parsable: 221, StrictParsable: 119, Unique: 220},
	}
	for site, want := range table4 {
		if got := *res.Funnel4.PerSite[site]; got != want {
			t.Errorf("Table 4 %s: %+v, want %+v", site, got, want)
		}
	}
	if want := (FunnelStats{Posts: 384, Snippets: 629, Solidity: 407, Parsable: 320, StrictParsable: 173, Unique: 317}); res.Funnel4.Total != want {
		t.Errorf("Table 4 total: %+v, want %+v", res.Funnel4.Total, want)
	}

	table5 := []Correlation{
		{Name: "All Snippets", SampleSize: 155, Rho: 0.20387632626206628},
		{Name: "Disseminator", SampleSize: 153, Rho: 0.3164086627543771},
		{Name: "Source", SampleSize: 66, Rho: 0.4564283858100496},
	}
	if len(res.Correlations) != len(table5) {
		t.Fatalf("Table 5: %d rows, want %d", len(res.Correlations), len(table5))
	}
	for i, want := range table5 {
		got := res.Correlations[i]
		// ρ within 1e-9: the same arithmetic may fuse a multiply-add on
		// another architecture.
		if got.Name != want.Name || got.SampleSize != want.SampleSize || math.Abs(got.Rho-want.Rho) > 1e-9 {
			t.Errorf("Table 5 row %d: %s n=%d ρ=%v, want %s n=%d ρ=%v",
				i, got.Name, got.SampleSize, got.Rho, want.Name, want.SampleSize, want.Rho)
		}
	}

	table7 := Funnel{
		UniqueSnippets: 317, VulnerableSnippets: 108, ContainedInContracts: 45, PostedBefore: 44,
		SourceSnippets: 24, ContractsContaining: 594, UniqueContracts: 505, SourceContracts: 295,
		ValidatedContracts: 505, VulnerableContracts: 505, VulnSnippetsInVuln: 38, Phase1Validated: 505,
	}
	if res.Funnel != table7 {
		t.Errorf("Table 7: %+v, want %+v", res.Funnel, table7)
	}

	// Table 8: true clone × snippet TP × contract TP.
	if res.Manual.SampleSize != 100 {
		t.Errorf("Table 8 sample: %d, want 100", res.Manual.SampleSize)
	}
	for _, clone := range []bool{false, true} {
		for _, snippetTP := range []bool{false, true} {
			for _, contractTP := range []bool{false, true} {
				want := 0
				switch {
				case clone && snippetTP && contractTP:
					want = 67
				case clone && !snippetTP && !contractTP:
					want = 33
				}
				if got := res.Manual.Counts[clone][snippetTP][contractTP]; got != want {
					t.Errorf("Table 8 clone=%v snippet=%v contract=%v: %d, want %d", clone, snippetTP, contractTP, got, want)
				}
			}
		}
	}
}

func TestFunnelShape(t *testing.T) {
	res := sharedResult(t)
	f := res.Funnel4.Total
	if f.Snippets == 0 || f.Posts == 0 {
		t.Fatal("empty corpus")
	}
	// Keyword filter keeps roughly 65%.
	kw := float64(f.Solidity) / float64(f.Snippets)
	if kw < 0.5 || kw > 0.8 {
		t.Errorf("keyword filter fraction: %.2f", kw)
	}
	// Fuzzy parse keeps roughly 77% of the keyword-passing snippets.
	pp := float64(f.Parsable) / float64(f.Solidity)
	if pp < 0.6 || pp > 0.95 {
		t.Errorf("parse fraction: %.2f", pp)
	}
	// The fuzzy grammar parses strictly more than the standard grammar
	// ("3,133 more snippets than the standard Solidity grammar").
	if f.StrictParsable >= f.Parsable {
		t.Errorf("fuzzy grammar should beat strict: %d vs %d", f.StrictParsable, f.Parsable)
	}
	// Dedup keeps most snippets.
	uq := float64(f.Unique) / float64(f.Parsable)
	if uq < 0.8 || uq > 1 {
		t.Errorf("unique fraction: %.2f", uq)
	}
	// Both sites contribute, ESE more than SO (Table 4).
	so := res.Funnel4.PerSite[dataset.StackOverflow]
	ese := res.Funnel4.PerSite[dataset.EthereumSE]
	if so.Unique == 0 || ese.Unique == 0 || ese.Unique <= so.Unique {
		t.Errorf("site split: SO=%d ESE=%d", so.Unique, ese.Unique)
	}
}

func TestVulnerableFraction(t *testing.T) {
	res := sharedResult(t)
	frac := float64(res.Funnel.VulnerableSnippets) / float64(res.Funnel.UniqueSnippets)
	// Paper: 4,596/18,660 ≈ 0.246.
	if frac < 0.12 || frac > 0.45 {
		t.Errorf("vulnerable fraction: %.2f", frac)
	}
}

func TestCloneMapFindsPlantedClones(t *testing.T) {
	res := sharedResult(t)
	// Count contracts with planted clones whose snippet survived filtering.
	uniqueIDs := map[string]bool{}
	for _, u := range res.Unique {
		uniqueIDs[u.ID] = true
	}
	planted, found := 0, 0
	matchedBy := map[string]map[string]bool{} // snippet -> contract set
	for id, ms := range res.CloneMap {
		matchedBy[id] = map[string]bool{}
		for _, m := range ms {
			matchedBy[id][m.Contract.Address] = true
		}
	}
	for i := range res.Contracts {
		c := &res.Contracts[i]
		if c.FromSnippet == "" || !uniqueIDs[c.FromSnippet] {
			continue
		}
		planted++
		if matchedBy[c.FromSnippet][c.Address] {
			found++
		}
	}
	if planted == 0 {
		t.Fatal("no planted clones with surviving snippets")
	}
	recall := float64(found) / float64(planted)
	// The conservative ε=0.9 still has to find the majority of direct
	// plants (mutations are Type I-III).
	if recall < 0.45 {
		t.Errorf("planted clone recall: %.2f (%d/%d)", recall, found, planted)
	}
}

func TestCorrelationOrdering(t *testing.T) {
	res := sharedResult(t)
	if len(res.Correlations) != 3 {
		t.Fatalf("correlations: %d", len(res.Correlations))
	}
	all, diss, src := res.Correlations[0], res.Correlations[1], res.Correlations[2]
	if all.SampleSize < diss.SampleSize || diss.SampleSize < src.SampleSize {
		t.Errorf("sample sizes must shrink: %d %d %d", all.SampleSize, diss.SampleSize, src.SampleSize)
	}
	// Table 5 shape: correlation strengthens toward source snippets.
	if !(src.Rho > all.Rho) {
		t.Errorf("source rho (%.3f) should exceed all-snippets rho (%.3f)", src.Rho, all.Rho)
	}
	if src.Rho < 0.1 {
		t.Errorf("source rho too weak: %.3f", src.Rho)
	}
	if src.P > 0.05 {
		t.Errorf("source correlation not significant: p=%.4f", src.P)
	}
}

func TestFunnelMonotonic(t *testing.T) {
	res := sharedResult(t)
	f := res.Funnel
	if f.VulnerableSnippets > f.UniqueSnippets {
		t.Error("vulnerable > unique")
	}
	if f.ContainedInContracts > f.VulnerableSnippets {
		t.Error("contained > vulnerable")
	}
	if f.PostedBefore > f.ContainedInContracts {
		t.Error("posted-before > contained")
	}
	if f.SourceSnippets > f.PostedBefore {
		t.Error("source > posted-before")
	}
	if f.UniqueContracts > f.ContractsContaining {
		t.Error("unique contracts > containing relations")
	}
	if f.VulnerableContracts > f.ValidatedContracts {
		t.Error("vulnerable > validated")
	}
	if f.ValidatedContracts > f.UniqueContracts {
		t.Error("validated > unique contracts")
	}
	if f.VulnSnippetsInVuln > f.PostedBefore {
		t.Error("snippets-in-vuln > posted-before")
	}
	// The study must find a real effect: clones exist and most validate.
	if f.PostedBefore == 0 || f.UniqueContracts == 0 {
		t.Fatalf("no clone relations found: %+v", f)
	}
	if f.ValidatedContracts == 0 {
		t.Fatal("validation did not complete for any contract")
	}
	validRate := float64(f.VulnerableContracts) / float64(f.ValidatedContracts)
	// Paper: 17,852/21,047 ≈ 0.85 of validated contracts stay vulnerable.
	if validRate < 0.5 {
		t.Errorf("validated-vulnerable rate: %.2f", validRate)
	}
}

func TestTable6Distribution(t *testing.T) {
	res := sharedResult(t)
	if len(res.Table6) < 4 {
		t.Fatalf("too few categories in Table 6: %v", res.Table6)
	}
	for cat, e := range res.Table6 {
		if e.Snippets == 0 && e.Contracts > 0 {
			t.Errorf("%s: contracts without snippets", cat)
		}
	}
}

func TestManualValidationSample(t *testing.T) {
	res := sharedResult(t)
	mv := res.Manual
	if mv.SampleSize == 0 {
		t.Fatal("empty manual validation sample")
	}
	total := 0
	for _, a := range mv.Counts {
		for _, b := range a {
			for _, n := range b {
				total += n
			}
		}
	}
	if total != mv.SampleSize {
		t.Fatalf("cell sum %d != sample %d", total, mv.SampleSize)
	}
	// The dominant cell must be true-clone/snippet-TP/contract-TP
	// (48 of 100 in the paper).
	tp := mv.Counts[true][true][true]
	if tp*3 < mv.SampleSize {
		t.Errorf("true/TP/TP cell too small: %d of %d", tp, mv.SampleSize)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	a := Run(cfg)
	b := Run(cfg)
	if a.Funnel != b.Funnel {
		t.Errorf("funnels differ:\n%+v\n%+v", a.Funnel, b.Funnel)
	}
}

func TestConservativeStricterThanDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	cons := Run(cfg)
	cfg2 := cfg
	cfg2.CCD = ccd.DefaultConfig // ε=0.7
	loose := Run(cfg2)
	consRel, looseRel := 0, 0
	for _, ms := range cons.CloneMap {
		consRel += len(ms)
	}
	for _, ms := range loose.CloneMap {
		looseRel += len(ms)
	}
	if looseRel < consRel {
		t.Errorf("ε=0.7 should find at least as many clones: %d vs %d", looseRel, consRel)
	}
}

func TestPhase2RescuesTightBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two extra studies; run without -short")
	}
	// With a tiny phase-1 step budget, validations truncate and the
	// phase-2 path reduction completes them (the paper's 17,278 → 17,852
	// mechanism). Phase1Validated must fall below ValidatedContracts.
	cfg := DefaultConfig()
	cfg.Scale = 0.006
	cfg.Phase1Steps = 40
	cfg.Phase2Depths = []int{4, 2}
	res := Run(cfg)
	if res.Funnel.ValidatedContracts == 0 {
		t.Skip("no contracts validated at this scale")
	}
	if res.Funnel.Phase1Validated >= res.Funnel.ValidatedContracts {
		t.Errorf("tight budget should force phase-2 validations: phase1=%d total=%d",
			res.Funnel.Phase1Validated, res.Funnel.ValidatedContracts)
	}
	// Path reduction completes what phase 1 could not: the paper's
	// 19,992 → 21,047 rescue.
	unbounded := DefaultConfig()
	unbounded.Scale = 0.006
	full := Run(unbounded)
	if res.Funnel.ValidatedContracts != full.Funnel.ValidatedContracts {
		t.Errorf("phase 2 should complete all candidates: %d vs %d",
			res.Funnel.ValidatedContracts, full.Funnel.ValidatedContracts)
	}
}

func TestManualValidationStratified(t *testing.T) {
	res := sharedResult(t)
	// The sample must include pairs from more than one DASP category.
	cats := map[string]bool{}
	for i := range res.Unique {
		sn := &res.Unique[i]
		if sn.Vulnerable() && len(res.CloneMap[sn.ID]) > 0 {
			cats[string(sn.Categories[0])] = true
		}
	}
	if len(cats) < 3 {
		t.Skipf("too few categories in corpus: %d", len(cats))
	}
	if res.Manual.SampleSize < 50 {
		t.Errorf("sample too small: %d", res.Manual.SampleSize)
	}
}

// TestFilterSnippetsDuplicateUpdatesSurviveReallocation is the regression
// test for the stale-pointer bug in filterSnippets: the dedup map used to
// store pointers into the unique slice, which append reallocates, so
// Duplicates/Created/Views updates landed in dead backing arrays. Enough
// distinct snippets are interleaved with duplicates that the slice must grow
// several times between a snippet's first sighting and its later duplicates.
func TestFilterSnippetsDuplicateUpdatesSurviveReallocation(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	mkSnippet := func(id, src string, created time.Time, views int) dataset.Snippet {
		return dataset.Snippet{
			ID: id, Site: dataset.StackOverflow, Source: src,
			Created: created, Views: views,
		}
	}
	src := func(i int) string {
		return fmt.Sprintf("contract C%d { uint x; function f() public { x = %d; } }", i, i)
	}

	var qa dataset.QACorpus
	const distinct = 300
	// First sighting of every distinct snippet, in order.
	for i := 0; i < distinct; i++ {
		qa.Snippets = append(qa.Snippets, mkSnippet(fmt.Sprintf("s%d", i), src(i), base.AddDate(0, 0, i), 10))
	}
	// Then duplicates of the EARLIEST snippets: by now the unique slice has
	// grown (and reallocated) far past its first backing array, so any
	// retained pointer into it would be stale. Each duplicate also carries
	// an earlier creation date and a larger view count that must be folded
	// into the surviving unique snippet.
	for d := 0; d < 3; d++ {
		for i := 0; i < 10; i++ {
			qa.Snippets = append(qa.Snippets, mkSnippet(
				fmt.Sprintf("dup%d-%d", d, i), src(i),
				base.AddDate(0, 0, -1-d), 100+d,
			))
		}
	}

	_, unique := filterSnippets(qa)
	if len(unique) != distinct {
		t.Fatalf("unique: %d, want %d", len(unique), distinct)
	}
	for i := 0; i < 10; i++ {
		u := unique[i]
		if u.Duplicates != 3 {
			t.Errorf("snippet %d: Duplicates=%d, want 3", i, u.Duplicates)
		}
		if want := base.AddDate(0, 0, -3); !u.Created.Equal(want) {
			t.Errorf("snippet %d: Created=%v, want earliest %v", i, u.Created, want)
		}
		if u.Views != 102 {
			t.Errorf("snippet %d: Views=%d, want 102", i, u.Views)
		}
	}
	for i := 10; i < distinct; i++ {
		if unique[i].Duplicates != 0 {
			t.Errorf("snippet %d: unexpected Duplicates=%d", i, unique[i].Duplicates)
		}
	}
}

func TestTimeRangeAndDuplicates(t *testing.T) {
	res := sharedResult(t)
	lo, hi := res.TimeRange()
	if !lo.Before(hi) {
		t.Errorf("time range degenerate: %v %v", lo, hi)
	}
	if res.SnippetDuplicates() < 0 {
		t.Error("negative duplicates")
	}
}
