// Package core is the high-level public API of the reproduction: it bundles
// the snippet-tolerant vulnerability checker CCC, the fuzzy-hash clone
// detector CCD, and the end-to-end study pipeline behind three façade types.
//
// Quick start:
//
//	rep, err := core.CheckSnippet(`function withdraw(uint amount) public {
//		msg.sender.call{value: amount}("");
//		balances[msg.sender] -= amount;
//	}`)
//	for _, f := range rep.Findings { fmt.Println(f) }
//
//	det := core.NewCloneDetector(core.DefaultCloneConfig())
//	det.Add("posted-snippet", snippetSource)
//	matches, _ := det.FindClones(contractSource)
package core

import (
	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/cpg"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/solidity"
)

// Report re-exports the CCC report type.
type Report = ccc.Report

// Finding re-exports the CCC finding type.
type Finding = ccc.Finding

// Category re-exports the DASP category type.
type Category = ccc.Category

// CheckSnippet parses Solidity source — complete or incomplete — with the
// fuzzy snippet grammar, builds its code property graph and runs all 17
// vulnerability detectors.
func CheckSnippet(src string) (Report, error) {
	return ccc.AnalyzeSource(src)
}

// Checker is a configurable vulnerability checker.
type Checker struct {
	analyzer *ccc.Analyzer
}

// NewChecker returns a checker running all detectors.
func NewChecker() *Checker {
	return &Checker{analyzer: ccc.NewAnalyzer()}
}

// Restrict limits the checker to the given DASP categories.
func (c *Checker) Restrict(cats ...Category) *Checker {
	c.analyzer.OnlyCategories(cats...)
	return c
}

// WithPathLimit bounds data-flow path exploration (the paper's phase-2
// validation mechanism).
func (c *Checker) WithPathLimit(maxDepth int) *Checker {
	c.analyzer.Limits = query.Limits{MaxDepth: maxDepth}
	return c
}

// WithExtendedRules enables the future-work detectors on top of the 17
// paper rules (see ccc.ExtendedRules).
func (c *Checker) WithExtendedRules() *Checker {
	c.analyzer.WithExtendedRules()
	return c
}

// Check analyzes Solidity source.
func (c *Checker) Check(src string) (Report, error) {
	return c.analyzer.AnalyzeSource(src)
}

// Graph builds and returns the code property graph of src for callers that
// want to run their own traversals.
func Graph(src string) (*cpg.Graph, error) {
	return cpg.Parse(src)
}

// Parse exposes the snippet-tolerant parser.
func Parse(src string) (*solidity.SourceUnit, error) {
	return solidity.Parse(src)
}

// --- clone detection ----------------------------------------------------------

// CloneConfig re-exports the CCD parameters (N-gram size, η, ε).
type CloneConfig = ccd.Config

// DefaultCloneConfig is the paper's best trade-off (N=3, η=0.5, ε=0.7).
func DefaultCloneConfig() CloneConfig { return ccd.DefaultConfig }

// ConservativeCloneConfig is the high-confidence study configuration
// (N=3, η=0.5, ε=0.9).
func ConservativeCloneConfig() CloneConfig { return ccd.ConservativeConfig }

// CloneMatch is one detected clone.
type CloneMatch = ccd.Match

// CloneDetector finds Type I-III clones of indexed code in queried code.
type CloneDetector struct {
	corpus *ccd.Corpus
}

// NewCloneDetector returns an empty detector.
func NewCloneDetector(cfg CloneConfig) *CloneDetector {
	return &CloneDetector{corpus: ccd.NewCorpus(cfg)}
}

// Add fingerprints and indexes a source under an id. Parse errors are
// returned but whatever parsed is still indexed.
func (d *CloneDetector) Add(id, src string) error {
	return d.corpus.AddSource(id, src)
}

// Len returns the number of indexed entries.
func (d *CloneDetector) Len() int { return d.corpus.Len() }

// FindClones fingerprints src and returns the indexed entries it matches,
// best first: score descending, ties by id.
func (d *CloneDetector) FindClones(src string) ([]CloneMatch, error) {
	fp, err := ccd.FingerprintSource(src)
	if err != nil {
		return nil, err
	}
	return d.corpus.MatchTopK(fp, 0), nil
}

// Fingerprint exposes the raw fingerprint of a source.
func Fingerprint(src string) (string, error) {
	fp, err := ccd.FingerprintSource(src)
	return string(fp), err
}

// Similarity computes the order-independent similarity (0..100) between two
// sources' fingerprints (Algorithm 1 of the paper).
func Similarity(a, b string) (float64, error) {
	fa, err := ccd.FingerprintSource(a)
	if err != nil {
		return 0, err
	}
	fb, err := ccd.FingerprintSource(b)
	if err != nil {
		return 0, err
	}
	return ccd.Similarity(fa, fb), nil
}

// --- study ---------------------------------------------------------------------

// StudyConfig re-exports the pipeline configuration.
type StudyConfig = pipeline.Config

// StudyResult re-exports the pipeline result.
type StudyResult = pipeline.Result

// RunStudy executes the full Figure 6 experiment over generated corpora.
func RunStudy(cfg StudyConfig) *StudyResult {
	return pipeline.Run(cfg)
}

// DefaultStudyConfig returns the Section 6.3 configuration at a
// laptop-friendly scale.
func DefaultStudyConfig() StudyConfig { return pipeline.DefaultConfig() }
