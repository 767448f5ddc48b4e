// Package pipeline implements the paper's study (Figure 6): collect Q&A
// snippets, filter and deduplicate them (Table 4), detect vulnerable
// snippets with CCC, map them to deployed contracts with CCD, categorize the
// clone relations temporally (All/Disseminator/Source), validate the
// vulnerabilities inside the deployed contracts in two phases, and compute
// the popularity correlation (Table 5), DASP distribution (Table 6), funnel
// (Table 7) and ground-truth validation sample (Table 8).
package pipeline

import (
	"context"
	"sort"
	"strings"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/cpg"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/solidity"
	"repro/internal/stats"
)

// Config parameterizes a study run.
type Config struct {
	Seed  int64
	Scale float64 // corpus scale relative to the paper (1.0 = full size)
	// CCD is the clone-detector configuration (default: conservative
	// N=3, η=0.5, ε=0.9 per Section 6.3).
	CCD ccd.Config
	// Phase1Steps is the traversal budget standing in for the paper's
	// 1,800s validation timeout; contracts exceeding it go to phase 2.
	Phase1Steps int
	// Phase2Depths are the successively reduced data-flow path lengths of
	// the second validation phase.
	Phase2Depths []int
	// Workers bounds the study's parallel fan-out when no Engine is
	// supplied (≤ 0 selects GOMAXPROCS).
	Workers int
	// Engine optionally supplies a shared analysis engine whose worker
	// pool and caches the study reuses (cmd/serve passes its serving
	// engine here). nil creates a study-private engine.
	Engine *service.Engine
}

// DefaultConfig returns the configuration of Section 6.3 at a test-friendly
// scale.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Scale:        0.02,
		CCD:          ccd.ConservativeConfig,
		Phase1Steps:  200000,
		Phase2Depths: []int{64, 32, 16},
	}
}

// UniqueSnippet is a deduplicated, parsable Solidity snippet.
type UniqueSnippet struct {
	dataset.Snippet
	// Categories found by CCC ("" when the snippet is not vulnerable).
	Categories []ccc.Category
	// Duplicates counts how many crawled snippets collapsed into this one.
	Duplicates int
}

// Vulnerable reports whether CCC flagged the snippet.
func (u UniqueSnippet) Vulnerable() bool { return len(u.Categories) > 0 }

// FunnelStats is the Table 4 row set.
type FunnelStats struct {
	Posts, Snippets, Solidity, Parsable, StrictParsable, Unique int
}

// SiteFunnel maps sites to funnel stats plus the total.
type SiteFunnel struct {
	PerSite map[dataset.Site]*FunnelStats
	Total   FunnelStats
}

// ContractMatch links a snippet to a deployed contract containing it.
type ContractMatch struct {
	Contract *dataset.DeployedContract
	Score    float64
	// After reports snippet posting preceding the deployment.
	After bool
}

// Correlation is one Table 5 row.
type Correlation struct {
	Name       string
	SampleSize int
	Rho        float64
	P          float64
}

// Funnel is the Table 7 column.
type Funnel struct {
	UniqueSnippets       int
	VulnerableSnippets   int
	ContainedInContracts int // vulnerable snippets found in ≥1 contract
	PostedBefore         int // ... restricted to disseminator relations
	SourceSnippets       int
	ContractsContaining  int // contract clone relations (with duplicates)
	UniqueContracts      int
	SourceContracts      int
	ValidatedContracts   int // analyses that completed (phase 1+2)
	VulnerableContracts  int
	VulnSnippetsInVuln   int
	Phase1Validated      int // completed without path reduction
}

// ManualValidation is the Table 8 sample: true/false clones × snippet TP/FP
// × contract TP/FP.
type ManualValidation struct {
	SampleSize int
	// Counts[trueClone][snippetTP][contractTP]
	Counts map[bool]map[bool]map[bool]int
}

// Result aggregates everything the study produces.
type Result struct {
	Config       Config
	Funnel4      SiteFunnel
	Unique       []UniqueSnippet
	CloneMap     map[string][]ContractMatch // snippet ID -> matches
	Correlations []Correlation
	Table6       map[ccc.Category]struct{ Snippets, Contracts int }
	Funnel       Funnel
	Manual       ManualValidation

	// corpora retained for inspection.
	QA        dataset.QACorpus
	Contracts []dataset.DeployedContract
}

// Run executes the full study: corpus generation, filtering, detection,
// clone mapping, temporal categorization, validation and statistics.
func Run(cfg Config) *Result {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	if cfg.CCD.N == 0 {
		cfg.CCD = ccd.ConservativeConfig
	}
	if cfg.Phase1Steps == 0 {
		cfg.Phase1Steps = 200000
	}
	if len(cfg.Phase2Depths) == 0 {
		cfg.Phase2Depths = []int{64, 32, 16}
	}
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: cfg.Seed, Scale: cfg.Scale})
	contracts := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: cfg.Seed + 1, Scale: cfg.Scale}, qa)
	return RunWith(cfg, qa, contracts)
}

// RunWith executes the study over externally supplied corpora. The hot
// steps — CCC detection, clone mapping and two-phase validation — fan out
// through the service engine's worker pool, and every snippet report and
// fingerprint goes through its content-addressed caches.
func RunWith(cfg Config, qa dataset.QACorpus, contracts []dataset.DeployedContract) *Result {
	eng := cfg.Engine
	if eng == nil {
		eng = service.New(service.Options{Workers: cfg.Workers, CCD: cfg.CCD})
	}
	res := &Result{
		Config:    cfg,
		QA:        qa,
		Contracts: contracts,
		CloneMap:  make(map[string][]ContractMatch),
		Table6:    make(map[ccc.Category]struct{ Snippets, Contracts int }),
	}

	// Step 1: filter and deduplicate (Table 4).
	res.Funnel4, res.Unique = filterSnippets(qa)
	res.Funnel.UniqueSnippets = len(res.Unique)

	// Step 2: vulnerable snippet detection (CCC), one snippet per task.
	eng.Map(len(res.Unique), func(i int) {
		rep, err := eng.Analyze(res.Unique[i].Source)
		if err != nil {
			return
		}
		res.Unique[i].Categories = rep.Categories()
	})
	for i := range res.Unique {
		if res.Unique[i].Vulnerable() {
			res.Funnel.VulnerableSnippets++
		}
	}

	// Step 3: clone mapping (CCD). Contracts are fingerprinted in parallel
	// and ingested into a sharded study corpus as one batch — one publish per
	// shard, a deterministic segment layout — then every unique snippet
	// matches against it in parallel. Matches land in per-snippet slots; the
	// sharded corpus returns them in deterministic (score, address) order.
	corpus := service.NewCorpus(cfg.CCD, 0)
	contractByID := make(map[string]*dataset.DeployedContract, len(contracts))
	entries := make([]ccd.Entry, len(contracts))
	for i := range contracts {
		contractByID[contracts[i].Address] = &contracts[i]
		entries[i].ID = contracts[i].Address
	}
	eng.Map(len(contracts), func(i int) {
		entries[i].FP, _ = eng.Fingerprint(contracts[i].Source) // partial fingerprints still index
	})
	// A storeless corpus journals nothing, so the batch add cannot fail.
	_ = corpus.AddBatch(context.Background(), entries)
	matches := make([][]ContractMatch, len(res.Unique))
	eng.Map(len(res.Unique), func(i int) {
		sn := &res.Unique[i]
		fp, err := eng.Fingerprint(sn.Source)
		if err != nil || len(fp) == 0 {
			return
		}
		ms, _ := corpus.MatchTopK(fp, 0)
		for _, m := range ms {
			c := contractByID[m.ID]
			matches[i] = append(matches[i], ContractMatch{
				Contract: c,
				Score:    m.Score,
				After:    c.Deployed.After(sn.Created),
			})
		}
	})
	for i := range res.Unique {
		if len(matches[i]) > 0 {
			res.CloneMap[res.Unique[i].ID] = matches[i]
		}
	}

	// Step 4: popularity correlation (Table 5).
	res.Correlations = correlations(res)

	// Step 5: vulnerable pairing, temporal filtering, dedup, validation.
	runValidation(cfg, eng, res)

	// Step 6: ground-truth validation sample (Table 8).
	res.Manual = manualValidation(res, 100)
	return res
}

// filterSnippets applies the keyword filter, the fuzzy parse filter and
// deduplication, producing Table 4's funnel.
func filterSnippets(qa dataset.QACorpus) (SiteFunnel, []UniqueSnippet) {
	sf := SiteFunnel{PerSite: map[dataset.Site]*FunnelStats{
		dataset.StackOverflow: {},
		dataset.EthereumSE:    {},
	}}
	for _, p := range qa.Posts {
		sf.PerSite[p.Site].Posts++
	}
	// seen maps dedupe keys to positions in unique: appends reallocate the
	// backing array, so stored *UniqueSnippet pointers would go stale.
	seen := map[string]int{}
	var unique []UniqueSnippet
	for _, s := range qa.Snippets {
		st := sf.PerSite[s.Site]
		st.Snippets++
		if !dataset.IsSolidityLike(s.Source) {
			continue
		}
		st.Solidity++
		if _, err := solidity.Parse(s.Source); err != nil {
			continue
		}
		st.Parsable++
		if _, err := solidity.ParseStrict(s.Source); err == nil {
			st.StrictParsable++
		}
		key := dedupeKey(s.Source)
		if i, dup := seen[key]; dup {
			u := &unique[i]
			u.Duplicates++
			// Keep the earliest posting and the larger view count.
			if s.Created.Before(u.Created) {
				u.Created = s.Created
			}
			if s.Views > u.Views {
				u.Views = s.Views
			}
			continue
		}
		st.Unique++
		unique = append(unique, UniqueSnippet{Snippet: s})
		seen[key] = len(unique) - 1
	}
	for _, st := range sf.PerSite {
		sf.Total.Posts += st.Posts
		sf.Total.Snippets += st.Snippets
		sf.Total.Solidity += st.Solidity
		sf.Total.Parsable += st.Parsable
		sf.Total.StrictParsable += st.StrictParsable
		sf.Total.Unique += st.Unique
	}
	return sf, unique
}

// dedupeKey normalizes whitespace and comments for duplicate detection.
func dedupeKey(src string) string {
	s := solidity.StripComments(src)
	return strings.Join(strings.Fields(s), " ")
}

// correlations computes Spearman's ρ of views vs number of containing
// contracts for the three temporal snippet groups, restricted to snippets
// with at least one embedding contract.
func correlations(res *Result) []Correlation {
	var allV, allN []float64
	var dissV, dissN []float64
	var srcV, srcN []float64
	for i := range res.Unique {
		sn := &res.Unique[i]
		matches := res.CloneMap[sn.ID]
		if len(matches) == 0 {
			continue
		}
		nr := float64(len(uniqueContracts(matches)))
		allV = append(allV, float64(sn.Views))
		allN = append(allN, nr)
		var after, before int
		for _, m := range matches {
			if m.After {
				after++
			} else {
				before++
			}
		}
		if after > 0 {
			// Disseminator: only contracts deployed after the posting count.
			dissV = append(dissV, float64(sn.Views))
			dissN = append(dissN, float64(after))
			if before == 0 {
				srcV = append(srcV, float64(sn.Views))
				srcN = append(srcN, float64(after))
			}
		}
	}
	mk := func(name string, v, n []float64) Correlation {
		rho, p := stats.Spearman(v, n)
		return Correlation{Name: name, SampleSize: len(v), Rho: rho, P: p}
	}
	return []Correlation{
		mk("All Snippets", allV, allN),
		mk("Disseminator", dissV, dissN),
		mk("Source", srcV, srcN),
	}
}

func uniqueContracts(ms []ContractMatch) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		out[dedupeKey(m.Contract.Source)] = true
	}
	return out
}

// runValidation performs the vulnerable pairing and the two-phase contract
// validation of Section 6.3. Validation fans out one contract per worker
// task; aggregation stays serial in pair order so results are deterministic.
func runValidation(cfg Config, eng *service.Engine, res *Result) {
	type pair struct {
		snippet  *UniqueSnippet
		contract *dataset.DeployedContract
	}
	seenContract := map[string]bool{}   // deduped contract keys
	sourceContract := map[string]bool{} // contracts of source snippets
	vulnContracts := map[string]bool{}  // validated vulnerable contracts
	snippetHasVulnContract := map[string]bool{}
	var pairs []pair

	contractsContaining := 0
	for i := range res.Unique {
		sn := &res.Unique[i]
		if !sn.Vulnerable() {
			continue
		}
		matches := res.CloneMap[sn.ID]
		if len(matches) == 0 {
			continue
		}
		res.Funnel.ContainedInContracts++
		var after []ContractMatch
		allAfter := true
		for _, m := range matches {
			if m.After {
				after = append(after, m)
			} else {
				allAfter = false
			}
		}
		if len(after) == 0 {
			continue
		}
		res.Funnel.PostedBefore++
		if allAfter {
			res.Funnel.SourceSnippets++
		}
		contractsContaining += len(after)
		for _, m := range after {
			key := dedupeKey(m.Contract.Source)
			if !seenContract[key] {
				seenContract[key] = true
				pairs = append(pairs, pair{snippet: sn, contract: m.Contract})
			}
			if allAfter {
				sourceContract[key] = true
			}
		}
		// Table 6: snippet-side category distribution.
		for _, cat := range sn.Categories {
			e := res.Table6[cat]
			e.Snippets++
			res.Table6[cat] = e
		}
	}
	res.Funnel.ContractsContaining = contractsContaining
	res.Funnel.UniqueContracts = len(seenContract)
	res.Funnel.SourceContracts = len(sourceContract)

	// Two-phase validation: re-run CCC on each candidate contract checking
	// only the snippet's categories. Phase 1 runs with the step budget;
	// truncated analyses re-run with iteratively reduced path depths.
	type valResult struct {
		rep       ccc.Report
		completed bool
	}
	validated := make([]valResult, len(pairs))
	eng.Map(len(pairs), func(i int) {
		rep, completed := validateContract(cfg, pairs[i].contract.Source, pairs[i].snippet.Categories)
		validated[i] = valResult{rep: rep, completed: completed}
	})
	for i, p := range pairs {
		rep, completed := validated[i].rep, validated[i].completed
		if !completed {
			continue
		}
		res.Funnel.ValidatedContracts++
		if !rep.Truncated {
			res.Funnel.Phase1Validated++
		}
		if len(rep.Findings) == 0 {
			continue
		}
		key := dedupeKey(p.contract.Source)
		if !vulnContracts[key] {
			vulnContracts[key] = true
		}
		snippetHasVulnContract[p.snippet.ID] = true
		for _, cat := range rep.Categories() {
			e := res.Table6[cat]
			e.Contracts++
			res.Table6[cat] = e
		}
	}
	res.Funnel.VulnerableContracts = len(vulnContracts)
	res.Funnel.VulnSnippetsInVuln = len(snippetHasVulnContract)
}

// validateContract runs CCC restricted to the snippet's categories with the
// phase-1 budget, then retries with reduced path depths (phase 2). The
// second result reports whether any phase completed. The contract is parsed
// once and every phase runs on that one graph (it is immutable during
// analysis), which is released at the end. runValidation builds at most one
// pair per contract, so no contract is parsed twice.
func validateContract(cfg Config, src string, cats []ccc.Category) (ccc.Report, bool) {
	g, err := cpg.Parse(src)
	defer g.Release()
	if err != nil {
		return ccc.Report{}, false
	}
	a := &ccc.Analyzer{Limits: query.Limits{MaxSteps: cfg.Phase1Steps}}
	a.OnlyCategories(cats...)
	rep := a.Analyze(g)
	if !rep.Truncated {
		return rep, true
	}
	// Phase 2: iterative data-flow path reduction. Only applied outside
	// negated mitigation sub-queries conceptually; here the analyzer's
	// depth limit bounds the positive patterns, so reducing it can only
	// add findings that the budget previously hid, never remove
	// mitigations recognized in phase 1.
	for _, depth := range cfg.Phase2Depths {
		a2 := &ccc.Analyzer{Limits: query.Limits{MaxSteps: cfg.Phase1Steps, MaxDepth: depth}}
		a2.OnlyCategories(cats...)
		rep2 := a2.Analyze(g)
		if !rep2.Truncated {
			rep2.Truncated = true // mark as phase-2 validated
			return rep2, true
		}
	}
	return rep, false
}

// manualValidation samples flagged (snippet, contract) pairs and compares
// them against the generator's ground truth, producing Table 8.
func manualValidation(res *Result, sample int) ManualValidation {
	mv := ManualValidation{Counts: map[bool]map[bool]map[bool]int{}}
	for _, tc := range []bool{true, false} {
		mv.Counts[tc] = map[bool]map[bool]int{}
		for _, st := range []bool{true, false} {
			mv.Counts[tc][st] = map[bool]int{}
		}
	}
	snippetByID := map[string]dataset.Snippet{}
	for _, s := range res.QA.Snippets {
		snippetByID[s.ID] = s
	}
	vulnTemplate := map[string]bool{}
	for _, t := range dataset.VulnTemplates() {
		vulnTemplate[t.Name] = true
	}

	// Stratify across categories: round-robin over category buckets.
	type flagged struct {
		sn *UniqueSnippet
		m  ContractMatch
	}
	buckets := map[ccc.Category][]flagged{}
	for i := range res.Unique {
		sn := &res.Unique[i]
		if !sn.Vulnerable() {
			continue
		}
		for _, m := range res.CloneMap[sn.ID] {
			if !m.After {
				continue
			}
			buckets[sn.Categories[0]] = append(buckets[sn.Categories[0]], flagged{sn, m})
		}
	}
	var cats []ccc.Category
	for c := range buckets {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })

	taken := 0
	for round := 0; taken < sample; round++ {
		progress := false
		for _, c := range cats {
			if round < len(buckets[c]) && taken < sample {
				f := buckets[c][round]
				progress = true
				taken++
				// Ground truth from generator lineage.
				snippetTrue := f.sn.Template != "" && vulnTemplate[f.sn.Template]
				var trueClone, contractTrue bool
				src := snippetByID[f.m.Contract.FromSnippet]
				if f.m.Contract.FromSnippet == f.sn.ID {
					trueClone = true
				} else if f.m.Contract.FromSnippet != "" && src.Template != "" && src.Template == f.sn.Template {
					// Same template family: genuinely the same code.
					trueClone = true
				}
				if f.m.Contract.FromSnippet != "" {
					contractTrue = src.Template != "" && vulnTemplate[src.Template]
				}
				mv.Counts[trueClone][snippetTrue][contractTrue]++
			}
		}
		if !progress {
			break
		}
	}
	mv.SampleSize = taken
	return mv
}

// Dedup helpers used by reporting.

// SnippetDuplicates returns total crawled→unique shrinkage.
func (r *Result) SnippetDuplicates() int {
	total := 0
	for _, u := range r.Unique {
		total += u.Duplicates
	}
	return total
}

// TimeRange returns the span of contract deployments.
func (r *Result) TimeRange() (time.Time, time.Time) {
	if len(r.Contracts) == 0 {
		return time.Time{}, time.Time{}
	}
	lo, hi := r.Contracts[0].Deployed, r.Contracts[0].Deployed
	for _, c := range r.Contracts {
		if c.Deployed.Before(lo) {
			lo = c.Deployed
		}
		if c.Deployed.After(hi) {
			hi = c.Deployed
		}
	}
	return lo, hi
}
