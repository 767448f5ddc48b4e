// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic corpora: Table 1 (CCC vs 8 tools), Table 2
// (snippet derivations), Table 3 (CCD vs SmartEmbed on honeypots), Tables
// 4-8 (the large-scale study) and Table 9/Figure 9 (the CCD parameter
// sweep). The same functions back bench_test.go, cmd/soddstudy and
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/ngram"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// CatResult is a per-category TP/FP cell of Table 1.
type CatResult struct {
	TP, FP int
}

// ToolRow is one tool column of Table 1.
type ToolRow struct {
	Tool      string
	PerCat    map[ccc.Category]CatResult
	TotalTP   int
	TotalFP   int
	Precision float64
	Recall    float64
	// Refused counts files the tool could not analyze (snippets).
	Refused int
}

// evalTool scores an analyzer over a benchmark with the paper's counting
// rule: findings only count within the matching test set; per file, up to
// Labels findings are true positives, the surplus is false positives.
func evalTool(name string, analyze func(src string) ([]baseline.Finding, error), b dataset.Benchmark, totalLabels int) ToolRow {
	row := ToolRow{Tool: name, PerCat: map[ccc.Category]CatResult{}}
	for _, f := range b.Files {
		findings, err := analyze(f.Source)
		if err != nil {
			row.Refused++
			continue
		}
		lines := map[int]bool{}
		n := 0
		for _, fd := range findings {
			if fd.Category != f.Category || lines[fd.Line] {
				continue
			}
			lines[fd.Line] = true
			n++
		}
		cell := row.PerCat[f.Category]
		tp := n
		if tp > f.Labels {
			tp = f.Labels
		}
		cell.TP += tp
		cell.FP += n - tp
		row.PerCat[f.Category] = cell
	}
	for _, cell := range row.PerCat {
		row.TotalTP += cell.TP
		row.TotalFP += cell.FP
	}
	if row.TotalTP+row.TotalFP > 0 {
		row.Precision = float64(row.TotalTP) / float64(row.TotalTP+row.TotalFP)
	}
	if totalLabels > 0 {
		row.Recall = float64(row.TotalTP) / float64(totalLabels)
	}
	return row
}

// cccAsTool adapts CCC to the baseline tool signature (CCC accepts
// snippets, so it never refuses input).
func cccAsTool(src string) ([]baseline.Finding, error) {
	rep, err := ccc.AnalyzeSource(src)
	if err != nil {
		return nil, err
	}
	out := make([]baseline.Finding, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		out = append(out, baseline.Finding{Category: f.Category, Line: f.Line})
	}
	return out, nil
}

// Table1 runs CCC and the eight baselines over the labeled benchmark.
func Table1(seed int64) []ToolRow {
	b := dataset.GenerateSmartBugs(seed)
	total := b.Labels()
	rows := []ToolRow{evalTool("CCC", cccAsTool, b, total)}
	for _, tool := range baseline.Tools() {
		rows = append(rows, evalTool(tool.Name(), tool.Analyze, b, total))
	}
	return rows
}

// Table2Row is one dataset column of Table 2.
type Table2Row struct {
	Dataset   string
	TP, FP    int
	Precision float64
	Recall    float64
}

// Table2 evaluates CCC on the original benchmark and its Functions and
// Statements derivations.
func Table2(seed int64) []Table2Row {
	orig := dataset.GenerateSmartBugs(seed)
	total := orig.Labels()
	sets := []struct {
		name string
		b    dataset.Benchmark
	}{
		{"Original", orig},
		{"Functions", dataset.DeriveFunctions(orig)},
		{"Statements", dataset.DeriveStatements(orig)},
	}
	var out []Table2Row
	for _, s := range sets {
		row := evalTool("CCC", cccAsTool, s.b, total)
		out = append(out, Table2Row{
			Dataset: s.name, TP: row.TotalTP, FP: row.TotalFP,
			Precision: row.Precision, Recall: row.Recall,
		})
	}
	return out
}

// Table3Row is one honeypot-type row of Table 3.
type Table3Row struct {
	Type                       dataset.HoneypotType
	SmartEmbedTP, SmartEmbedFP int
	CCDTP, CCDFP               int
}

// Table3Result is the full comparison with totals.
type Table3Result struct {
	Rows       []Table3Row
	SmartEmbed stats.Confusion
	CCD        stats.Confusion
}

// Table3 compares CCD against SmartEmbed on the honeypot benchmark: every
// contract is matched against all others; a reported pair is a true positive
// when both contracts share the honeypot type.
func Table3(seed int64, cfg ccd.Config) Table3Result {
	hp := dataset.GenerateHoneypots(seed)
	res := Table3Result{}
	byType := map[dataset.HoneypotType]*Table3Row{}
	for _, t := range dataset.HoneypotTypes {
		row := &Table3Row{Type: t}
		byType[t] = row
	}

	// Ground-truth ordered pair counts per type for FN computation.
	fam := map[dataset.HoneypotType]int{}
	for _, h := range hp {
		fam[h.Type]++
	}
	gtPairs := 0
	for _, n := range fam {
		gtPairs += n * (n - 1)
	}

	// CCD.
	corpus := ccd.NewCorpus(cfg)
	fps := make([]ccd.Fingerprint, len(hp))
	for i, h := range hp {
		fp, _ := ccd.FingerprintSource(h.Source)
		fps[i] = fp
		corpus.Add(h.ID, fp)
	}
	typeOf := map[string]dataset.HoneypotType{}
	for _, h := range hp {
		typeOf[h.ID] = h.Type
	}
	ccdTP := 0
	for i, h := range hp {
		for _, m := range corpus.MatchTopK(fps[i], 0) {
			if m.ID == h.ID {
				continue
			}
			row := byType[h.Type]
			if typeOf[m.ID] == h.Type {
				row.CCDTP++
				ccdTP++
			} else {
				row.CCDFP++
			}
		}
	}

	// SmartEmbed.
	se := baseline.NewSmartEmbed()
	embs := make([]baseline.Embedding, len(hp))
	ok := make([]bool, len(hp))
	for i, h := range hp {
		e, err := se.Embed(h.Source)
		if err == nil {
			embs[i] = e
			ok[i] = true
		}
	}
	seTP := 0
	for i, h := range hp {
		if !ok[i] {
			continue
		}
		for j := range hp {
			if i == j || !ok[j] {
				continue
			}
			if _, clone := se.IsClone(embs[i], embs[j]); !clone {
				continue
			}
			row := byType[h.Type]
			if hp[j].Type == h.Type {
				row.SmartEmbedTP++
				seTP++
			} else {
				row.SmartEmbedFP++
			}
		}
	}

	for _, t := range dataset.HoneypotTypes {
		res.Rows = append(res.Rows, *byType[t])
		res.CCD.TP += byType[t].CCDTP
		res.CCD.FP += byType[t].CCDFP
		res.SmartEmbed.TP += byType[t].SmartEmbedTP
		res.SmartEmbed.FP += byType[t].SmartEmbedFP
	}
	res.CCD.FN = gtPairs - res.CCD.TP
	res.SmartEmbed.FN = gtPairs - res.SmartEmbed.TP
	return res
}

// Study runs the full pipeline (Tables 4-8) at the given scale.
func Study(seed int64, scale float64) *pipeline.Result {
	cfg := pipeline.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	return pipeline.Run(cfg)
}

// PRPoint is one parameter combination of Figure 9.
type PRPoint struct {
	N         int
	Eta       float64
	Epsilon   float64
	Precision float64
	Recall    float64
}

// Figure9 sweeps the CCD parameters of Table 9 over the honeypot benchmark
// and returns precision/recall per combination, plus the SmartEmbed
// reference point.
func Figure9(seed int64) (points []PRPoint, smartEmbed stats.Confusion) {
	hp := dataset.GenerateHoneypots(seed)
	fps := make([]ccd.Fingerprint, len(hp))
	for i, h := range hp {
		fps[i], _ = ccd.FingerprintSource(h.Source)
	}
	fam := map[dataset.HoneypotType]int{}
	for _, h := range hp {
		fam[h.Type]++
	}
	gtPairs := 0
	for _, n := range fam {
		gtPairs += n * (n - 1)
	}

	// Pairwise similarity cache shared across all parameter combinations.
	type pairKey struct{ a, b int }
	simCache := map[pairKey]float64{}
	sim := func(a, b int) float64 {
		if s, hit := simCache[pairKey{a, b}]; hit {
			return s
		}
		s := ccd.Similarity(fps[a], fps[b])
		simCache[pairKey{a, b}] = s
		return s
	}

	etas := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	epsilons := []float64{50, 60, 70, 80, 90}
	var sc ngram.Scratch
	for _, n := range []int{3, 5, 7} {
		// One n-gram index per N, built like a served segment; each η
		// queries it through the retrieval /v1/match runs.
		idx := ngram.New(n)
		grams := make([][]string, len(fps))
		for i, fp := range fps {
			idx.Add(hp[i].ID, string(fp))
			grams[i] = ngram.Grams(string(fp), n)
		}
		idx.BuildBitmaps()
		for _, eta := range etas {
			confs := make([]stats.Confusion, len(epsilons))
			for qi := range hp {
				cands, _ := idx.QueryGramsScratch(grams[qi], eta, &sc)
				for _, c := range cands {
					if c.Doc == qi {
						continue
					}
					s := sim(qi, c.Doc)
					for k, eps := range epsilons {
						if s < eps {
							continue
						}
						if hp[c.Doc].Type == hp[qi].Type {
							confs[k].TP++
						} else {
							confs[k].FP++
						}
					}
				}
			}
			for k, eps := range epsilons {
				confs[k].FN = gtPairs - confs[k].TP
				points = append(points, PRPoint{
					N: n, Eta: eta, Epsilon: eps,
					Precision: confs[k].Precision(), Recall: confs[k].Recall(),
				})
			}
		}
	}

	t3 := Table3(seed, ccd.DefaultConfig)
	return points, t3.SmartEmbed
}

// --- rendering ---------------------------------------------------------------

// RenderTable1 formats Table 1 as text.
func RenderTable1(rows []ToolRow) string {
	var sb strings.Builder
	sb.WriteString("Table 1: per-category TP/FP and totals\n")
	fmt.Fprintf(&sb, "%-28s", "Category")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%14s", r.Tool)
	}
	sb.WriteString("\n")
	for _, cat := range ccc.Categories {
		if cat == ccc.UnknownUnknowns {
			continue
		}
		fmt.Fprintf(&sb, "%-28s", cat)
		for _, r := range rows {
			c := r.PerCat[cat]
			fmt.Fprintf(&sb, "%8d/%-5d", c.TP, c.FP)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-28s", "Total TP/FP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d/%-5d", r.TotalTP, r.TotalFP)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-28s", "Precision/Recall")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%7.1f%%/%-5.1f", r.Precision*100, r.Recall*100)
	}
	sb.WriteString("\n")
	return sb.String()
}

// RenderTable2 formats Table 2 as text.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: CCC on Original / Functions / Statements\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s TP=%-4d FP=%-3d precision=%5.1f%% recall=%5.1f%%\n",
			r.Dataset, r.TP, r.FP, r.Precision*100, r.Recall*100)
	}
	return sb.String()
}

// RenderTable3 formats Table 3 as text.
func RenderTable3(r Table3Result) string {
	var sb strings.Builder
	sb.WriteString("Table 3: SmartEmbed vs CCD on honeypots (TP/FP per type)\n")
	fmt.Fprintf(&sb, "%-28s %16s %16s\n", "Honeypot Type", "SmartEmbed", "CCD")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-28s %8d/%-7d %8d/%-7d\n",
			row.Type, row.SmartEmbedTP, row.SmartEmbedFP, row.CCDTP, row.CCDFP)
	}
	fmt.Fprintf(&sb, "%-28s %8d/%-7d %8d/%-7d\n", "Total",
		r.SmartEmbed.TP, r.SmartEmbed.FP, r.CCD.TP, r.CCD.FP)
	fmt.Fprintf(&sb, "Precision: SmartEmbed %.4f vs CCD %.4f\n", r.SmartEmbed.Precision(), r.CCD.Precision())
	fmt.Fprintf(&sb, "Recall:    SmartEmbed %.4f vs CCD %.4f\n", r.SmartEmbed.Recall(), r.CCD.Recall())
	fmt.Fprintf(&sb, "F1:        SmartEmbed %.4f vs CCD %.4f\n", r.SmartEmbed.F1(), r.CCD.F1())
	return sb.String()
}

// RenderStudy formats Tables 4-8 from a pipeline result.
func RenderStudy(res *pipeline.Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Q&A snippet corpus\n")
	fmt.Fprintf(&sb, "%-26s %8s %9s %9s %9s %8s\n", "Site", "Posts", "Snippets", "Solidity", "Parsable", "Unique")
	for _, site := range []dataset.Site{dataset.StackOverflow, dataset.EthereumSE} {
		st := res.Funnel4.PerSite[site]
		fmt.Fprintf(&sb, "%-26s %8d %9d %9d %9d %8d\n", site, st.Posts, st.Snippets, st.Solidity, st.Parsable, st.Unique)
	}
	tt := res.Funnel4.Total
	fmt.Fprintf(&sb, "%-26s %8d %9d %9d %9d %8d\n", "Total", tt.Posts, tt.Snippets, tt.Solidity, tt.Parsable, tt.Unique)
	fmt.Fprintf(&sb, "(fuzzy grammar parses %d snippets; the standard grammar parses %d)\n\n",
		tt.Parsable, tt.StrictParsable)

	sb.WriteString("Table 5: Spearman correlation of views vs containing contracts\n")
	for _, c := range res.Correlations {
		fmt.Fprintf(&sb, "%-16s n=%-6d rho=%6.3f p=%.4f\n", c.Name, c.SampleSize, c.Rho, c.P)
	}
	sb.WriteString("\n")

	sb.WriteString("Table 6: DASP categories across vulnerable snippets and contracts\n")
	for _, cat := range ccc.Categories {
		e, present := res.Table6[cat]
		if !present {
			continue
		}
		fmt.Fprintf(&sb, "%-28s snippets=%-5d contracts=%d\n", cat, e.Snippets, e.Contracts)
	}
	sb.WriteString("\n")

	f := res.Funnel
	sb.WriteString("Table 7: funnel\n")
	fmt.Fprintf(&sb, "Unique snippets:                    %d\n", f.UniqueSnippets)
	fmt.Fprintf(&sb, "Vulnerable snippets:                %d\n", f.VulnerableSnippets)
	fmt.Fprintf(&sb, "Contained in contracts:             %d\n", f.ContainedInContracts)
	fmt.Fprintf(&sb, "Posted before deployment:           %d (source: %d)\n", f.PostedBefore, f.SourceSnippets)
	fmt.Fprintf(&sb, "Contract clone relations:           %d\n", f.ContractsContaining)
	fmt.Fprintf(&sb, "Unique contracts:                   %d (source: %d)\n", f.UniqueContracts, f.SourceContracts)
	fmt.Fprintf(&sb, "Successfully validated:             %d (phase 1: %d)\n", f.ValidatedContracts, f.Phase1Validated)
	fmt.Fprintf(&sb, "Vulnerable contracts:               %d\n", f.VulnerableContracts)
	fmt.Fprintf(&sb, "Vuln. snippets in vuln. contracts:  %d\n\n", f.VulnSnippetsInVuln)

	mv := res.Manual
	sb.WriteString(fmt.Sprintf("Table 8: ground-truth validation of %d sampled pairs\n", mv.SampleSize))
	fmt.Fprintf(&sb, "%-14s %-12s %10s %10s\n", "", "", "contract TP", "contract FP")
	for _, tc := range []bool{true, false} {
		label := "True clones"
		if !tc {
			label = "False clones"
		}
		for _, st := range []bool{true, false} {
			sl := "snippet TP"
			if !st {
				sl = "snippet FP"
			}
			fmt.Fprintf(&sb, "%-14s %-12s %10d %10d\n", label, sl,
				mv.Counts[tc][st][true], mv.Counts[tc][st][false])
			label = ""
		}
	}
	return sb.String()
}

// RenderFigure9 formats the parameter sweep as a text table (the figure's
// series).
func RenderFigure9(points []PRPoint, se stats.Confusion) string {
	var sb strings.Builder
	sb.WriteString("Figure 9 / Table 9: CCD parameter sweep (precision, recall)\n")
	fmt.Fprintf(&sb, "SmartEmbed reference: precision=%.4f recall=%.4f\n", se.Precision(), se.Recall())
	cur := 0
	for _, p := range points {
		if p.N != cur {
			cur = p.N
			fmt.Fprintf(&sb, "-- N-gram size %d --\n", p.N)
		}
		fmt.Fprintf(&sb, "eta=%.1f eps=%.0f  precision=%.4f recall=%.4f\n",
			p.Eta, p.Epsilon, p.Precision, p.Recall)
	}
	return sb.String()
}

// Figure9CSV renders the sweep as CSV for external plotting: one row per
// (N, η, ε) combination plus a SmartEmbed reference row.
func Figure9CSV(points []PRPoint, se stats.Confusion) string {
	var sb strings.Builder
	sb.WriteString("tool,n,eta,epsilon,precision,recall\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "ccd,%d,%.1f,%.0f,%.6f,%.6f\n", p.N, p.Eta, p.Epsilon, p.Precision, p.Recall)
	}
	fmt.Fprintf(&sb, "smartembed,,,,%.6f,%.6f\n", se.Precision(), se.Recall())
	return sb.String()
}

// BestFigure9 returns the sweep point with the best F1.
func BestFigure9(points []PRPoint) PRPoint {
	best := PRPoint{}
	bestF1 := -1.0
	for _, p := range points {
		f1 := 0.0
		if p.Precision+p.Recall > 0 {
			f1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
		}
		if f1 > bestF1 {
			bestF1 = f1
			best = p
		}
	}
	return best
}
