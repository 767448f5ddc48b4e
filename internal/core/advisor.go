package core

import "repro/internal/ccd"

// Advisor implements the mitigation tooling the paper proposes for Q&A
// providers (Section 6.7): flag a posted snippet when CCC considers it
// problematic or when it is highly similar to code already reported as part
// of a vulnerability.
type Advisor struct {
	checker *Checker
	known   *ccd.Corpus
	meta    map[string]KnownVulnerability
}

// KnownVulnerability describes one reported-vulnerable code fragment the
// advisor matches against.
type KnownVulnerability struct {
	ID          string
	Description string
	Category    Category
}

// Advice is the advisor's verdict for a snippet.
type Advice struct {
	// Findings are CCC's direct findings in the snippet.
	Findings []Finding
	// SimilarKnown lists known-vulnerable fragments the snippet resembles,
	// best match first: score descending, ties by id.
	SimilarKnown []KnownMatch
}

// KnownMatch pairs a known vulnerability with its similarity score.
type KnownMatch struct {
	KnownVulnerability
	Score float64
}

// Flagged reports whether the snippet deserves a warning banner.
func (a Advice) Flagged() bool {
	return len(a.Findings) > 0 || len(a.SimilarKnown) > 0
}

// NewAdvisor returns an advisor with an empty knowledge base using the
// paper's recommended clone parameters.
func NewAdvisor() *Advisor {
	return &Advisor{
		checker: NewChecker(),
		known:   ccd.NewCorpus(ccd.DefaultConfig),
		meta:    make(map[string]KnownVulnerability),
	}
}

// AddKnown registers a reported-vulnerable code fragment.
func (a *Advisor) AddKnown(k KnownVulnerability, source string) error {
	a.meta[k.ID] = k
	return a.known.AddSource(k.ID, source)
}

// KnownCount returns the knowledge-base size.
func (a *Advisor) KnownCount() int { return a.known.Len() }

// Review analyzes a snippet: direct CCC findings plus similarity against the
// knowledge base, best match first (score descending, ties by id). Parse
// problems are tolerated (snippets are snippets).
func (a *Advisor) Review(snippet string) (Advice, error) {
	var adv Advice
	rep, err := a.checker.Check(snippet)
	if err == nil {
		adv.Findings = rep.Findings
	}
	fp, ferr := ccd.FingerprintSource(snippet)
	if ferr == nil || len(fp) > 0 {
		for _, m := range a.known.MatchTopK(fp, 0) {
			adv.SimilarKnown = append(adv.SimilarKnown, KnownMatch{
				KnownVulnerability: a.meta[m.ID],
				Score:              m.Score,
			})
		}
	}
	if err != nil && ferr != nil {
		return adv, err
	}
	return adv, nil
}
