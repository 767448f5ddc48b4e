package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func findRow(rows []ToolRow, name string) ToolRow {
	for _, r := range rows {
		if r.Tool == name {
			return r
		}
	}
	return ToolRow{}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(1)
	if len(rows) != 9 {
		t.Fatalf("tools: %d", len(rows))
	}
	cccRow := findRow(rows, "CCC")

	// CCC reports the most true positives of all tools (the paper's headline).
	for _, r := range rows[1:] {
		if r.TotalTP >= cccRow.TotalTP {
			t.Errorf("%s TP (%d) >= CCC TP (%d)", r.Tool, r.TotalTP, cccRow.TotalTP)
		}
	}
	// CCC recall near the paper's 77.4% and precision near 92.3%.
	if cccRow.Recall < 0.70 || cccRow.Recall > 0.85 {
		t.Errorf("CCC recall: %.3f", cccRow.Recall)
	}
	if cccRow.Precision < 0.85 {
		t.Errorf("CCC precision: %.3f", cccRow.Precision)
	}
	// CCC covers all nine categories; no baseline does.
	cccCats := 0
	for _, c := range cccRow.PerCat {
		if c.TP > 0 {
			cccCats++
		}
	}
	if cccCats != 9 {
		t.Errorf("CCC category coverage: %d", cccCats)
	}
	for _, r := range rows[1:] {
		cats := 0
		for _, c := range r.PerCat {
			if c.TP > 0 {
				cats++
			}
		}
		if cats >= 9 {
			t.Errorf("%s covers %d categories", r.Tool, cats)
		}
	}
	// Conkas is the second-best detector by TP but noisier than CCC.
	conkas := findRow(rows, "Conkas")
	second := 0
	for _, r := range rows[1:] {
		if r.TotalTP > second {
			second = r.TotalTP
		}
	}
	if conkas.TotalTP != second {
		t.Errorf("Conkas should be the best baseline: %d vs %d", conkas.TotalTP, second)
	}
	// SmartCheck: precise but narrow.
	sc := findRow(rows, "SmartCheck")
	if sc.Precision < cccRow.Precision {
		t.Errorf("SmartCheck precision (%.2f) should beat CCC (%.2f)", sc.Precision, cccRow.Precision)
	}
	if sc.TotalTP*2 > cccRow.TotalTP {
		t.Errorf("SmartCheck TP too high: %d", sc.TotalTP)
	}
}

// TestTable1Golden pins Table 1 at seed 1: every tool's true and false
// positives, and through them its precision and recall (CCC 160 TP / 11 FP:
// 93.57 % precision, 78.43 % recall). Update only with a reason.
func TestTable1Golden(t *testing.T) {
	want := []struct {
		tool   string
		tp, fp int
	}{
		{"CCC", 160, 11}, {"Confuzzius", 76, 6}, {"Conkas", 127, 19}, {"Mythril", 122, 4}, {"Osiris", 58, 4},
		{"Oyente", 52, 4}, {"Securify", 107, 25}, {"Slither", 100, 0}, {"SmartCheck", 55, 0},
	}
	rows := Table1(1)
	if len(rows) != len(want) {
		t.Fatalf("%d tools, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if r := rows[i]; r.Tool != w.tool || r.TotalTP != w.tp || r.TotalFP != w.fp {
			t.Errorf("row %d: %s %d TP / %d FP, want %s %d / %d", i, r.Tool, r.TotalTP, r.TotalFP, w.tool, w.tp, w.fp)
		}
	}
	if ccc := rows[0]; fmt.Sprintf("%.4f %.4f", ccc.Precision, ccc.Recall) != "0.9357 0.7843" {
		t.Errorf("CCC precision %.4f recall %.4f, want 0.9357 0.7843", ccc.Precision, ccc.Recall)
	}
}

// TestTable2Golden pins Table 2 at seed 1: CCC's counts, precision and
// recall on the original benchmark and its Functions and Statements
// derivations. Update only with a reason.
func TestTable2Golden(t *testing.T) {
	want := []string{
		"Original 160/11 0.9357 0.7843",
		"Functions 150/10 0.9375 0.7353",
		"Statements 113/4 0.9658 0.5539",
	}
	rows := Table2(1)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%s %d/%d %.4f %.4f", r.Dataset, r.TP, r.FP, r.Precision, r.Recall); got != want[i] {
			t.Errorf("row %d: %s, want %s", i, got, want[i])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(1)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	orig, fns, stmts := rows[0], rows[1], rows[2]
	// The paper's pattern: precision rises, recall falls from Original →
	// Functions → Statements.
	if !(fns.Precision >= orig.Precision && stmts.Precision >= fns.Precision) {
		t.Errorf("precision should increase: %.3f %.3f %.3f", orig.Precision, fns.Precision, stmts.Precision)
	}
	if !(fns.Recall <= orig.Recall && stmts.Recall <= fns.Recall) {
		t.Errorf("recall should decrease: %.3f %.3f %.3f", orig.Recall, fns.Recall, stmts.Recall)
	}
	if stmts.Recall < 0.35 {
		t.Errorf("statements recall collapsed: %.3f", stmts.Recall)
	}
}

// The honeypot experiments are the slowest of the suite, so each runs once per
// test binary at seed 1 and every Shape, Golden and render test reads that one
// result. Under -short they are skipped.
var (
	table3Once  sync.Once
	table3Res   Table3Result
	figure9Once sync.Once
	figure9Pts  []PRPoint
	figure9SE   stats.Confusion
)

func table3Seed1(t *testing.T) Table3Result {
	t.Helper()
	if testing.Short() {
		t.Skip("Table 3 honeypot corpus is expensive; run without -short")
	}
	table3Once.Do(func() { table3Res = Table3(1, ccd.DefaultConfig) })
	return table3Res
}

func figure9Seed1(t *testing.T) ([]PRPoint, stats.Confusion) {
	t.Helper()
	if testing.Short() {
		t.Skip("Figure 9 sweeps 75 parameter combinations; run without -short")
	}
	figure9Once.Do(func() { figure9Pts, figure9SE = Figure9(1) })
	return figure9Pts, figure9SE
}

func TestTable3Shape(t *testing.T) {
	res := table3Seed1(t)
	if len(res.Rows) != 9 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// CCD reports more true positives, higher recall and F1 than SmartEmbed.
	if res.CCD.TP <= res.SmartEmbed.TP {
		t.Errorf("CCD TP (%d) should exceed SmartEmbed (%d)", res.CCD.TP, res.SmartEmbed.TP)
	}
	if res.CCD.Recall() <= res.SmartEmbed.Recall() {
		t.Errorf("CCD recall (%.3f) should exceed SmartEmbed (%.3f)", res.CCD.Recall(), res.SmartEmbed.Recall())
	}
	if res.CCD.F1() <= res.SmartEmbed.F1() {
		t.Errorf("CCD F1 (%.3f) should exceed SmartEmbed (%.3f)", res.CCD.F1(), res.SmartEmbed.F1())
	}
	// Both precisions are high; CCD's within 5 points of SmartEmbed's.
	if res.CCD.Precision() < 0.9 {
		t.Errorf("CCD precision: %.3f", res.CCD.Precision())
	}
	if res.SmartEmbed.Precision()-res.CCD.Precision() > 0.05 {
		t.Errorf("precision gap too large: %.3f vs %.3f", res.SmartEmbed.Precision(), res.CCD.Precision())
	}
	// Recall is low for both (the paper's ~0.25): families are diverse.
	if res.CCD.Recall() > 0.6 {
		t.Errorf("CCD recall unrealistically high: %.3f", res.CCD.Recall())
	}
	// Hidden State Update dominates the counts (paper: 6,912 of 8,736).
	var hsu Table3Row
	for _, r := range res.Rows {
		if string(r.Type) == "Hidden State Update" {
			hsu = r
		}
	}
	if hsu.CCDTP*2 < res.CCD.TP {
		t.Errorf("Hidden State Update should dominate: %d of %d", hsu.CCDTP, res.CCD.TP)
	}
}

// TestTable3Golden pins Table 3 at seed 1: per honeypot type, CCD's and
// SmartEmbed's true and false positives, and the totals (CCD 15 542 TP /
// 403 FP, SmartEmbed 13 498 TP / 0 FP, both over 39 348 ground-truth ordered
// pairs). Update only with a reason.
func TestTable3Golden(t *testing.T) {
	want := []Table3Row{
		{"Balance Disorder", 542, 0, 564, 92},
		{"Type Deduction Overflow", 36, 0, 56, 33},
		{"Hidden Transfer", 366, 0, 380, 17},
		{"Unexecuted Call", 46, 0, 56, 0},
		{"Uninitialised Struct", 992, 0, 958, 140},
		{"Hidden State Update", 8924, 0, 8772, 0},
		{"Inheritance Disorder", 558, 0, 902, 8},
		{"Skip Empty String Literal", 72, 0, 72, 112},
		{"Straw Man Contract", 1962, 0, 3782, 1},
	}
	res := table3Seed1(t)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i] != w {
			t.Errorf("row %d: %+v, want %+v", i, res.Rows[i], w)
		}
	}
	if got, want := res.CCD, (stats.Confusion{TP: 15542, FP: 403, FN: 23806}); got != want {
		t.Errorf("CCD %+v, want %+v", got, want)
	}
	if got, want := res.SmartEmbed, (stats.Confusion{TP: 13498, FP: 0, FN: 25850}); got != want {
		t.Errorf("SmartEmbed %+v, want %+v", got, want)
	}
}

// TestFigure9Golden pins all 75 points of Figure 9 at seed 1 as the true and
// false positives behind each precision/recall pair, over the 39 348
// ground-truth pairs of Table 3; the pair each point reports must be exactly
// the one those counts give. N=3 η=0.5 ε=70 is Table 3's CCD total. The best
// point by F1 is N=3 η=0.5 ε=50. Update only with a reason.
func TestFigure9Golden(t *testing.T) {
	const gtPairs = 39348
	// TP/FP at ε = 50, 60, 70, 80, 90, per (N, η).
	want := []struct {
		n    int
		eta  float64
		tpfp [5][2]int
	}{
		{3, 0.5, [5][2]int{{21746, 1890}, {18752, 1189}, {15542, 403}, {10088, 1}, {6574, 0}}},
		{3, 0.6, [5][2]int{{16425, 13}, {13570, 11}, {11890, 3}, {8684, 0}, {6269, 0}}},
		{3, 0.7, [5][2]int{{10280, 0}, {8985, 0}, {8626, 0}, {7652, 0}, {6161, 0}}},
		{3, 0.8, [5][2]int{{6469, 0}, {6260, 0}, {6251, 0}, {6147, 0}, {5565, 0}}},
		{3, 0.9, [5][2]int{{3182, 0}, {3182, 0}, {3182, 0}, {3182, 0}, {3080, 0}}},
		{5, 0.5, [5][2]int{{19179, 0}, {16218, 0}, {14137, 0}, {9830, 0}, {6574, 0}}},
		{5, 0.6, [5][2]int{{12422, 0}, {10939, 0}, {10440, 0}, {8539, 0}, {6344, 0}}},
		{5, 0.7, [5][2]int{{7887, 0}, {7666, 0}, {7644, 0}, {7220, 0}, {6018, 0}}},
		{5, 0.8, [5][2]int{{5378, 0}, {5374, 0}, {5374, 0}, {5352, 0}, {4960, 0}}},
		{5, 0.9, [5][2]int{{2555, 0}, {2555, 0}, {2555, 0}, {2555, 0}, {2481, 0}}},
		{7, 0.5, [5][2]int{{17874, 0}, {15087, 0}, {13229, 0}, {9578, 0}, {6569, 0}}},
		{7, 0.6, [5][2]int{{10960, 0}, {9873, 0}, {9613, 0}, {8201, 0}, {6203, 0}}},
		{7, 0.7, [5][2]int{{7396, 0}, {7210, 0}, {7206, 0}, {6928, 0}, {5898, 0}}},
		{7, 0.8, [5][2]int{{4791, 0}, {4791, 0}, {4791, 0}, {4791, 0}, {4500, 0}}},
		{7, 0.9, [5][2]int{{1953, 0}, {1953, 0}, {1953, 0}, {1953, 0}, {1948, 0}}},
	}
	points, se := figure9Seed1(t)
	if len(points) != 5*len(want) {
		t.Fatalf("%d points, want %d", len(points), 5*len(want))
	}
	for i, w := range want {
		for j, eps := range []float64{50, 60, 70, 80, 90} {
			c := stats.Confusion{TP: w.tpfp[j][0], FP: w.tpfp[j][1], FN: gtPairs - w.tpfp[j][0]}
			wp := PRPoint{N: w.n, Eta: w.eta, Epsilon: eps, Precision: c.Precision(), Recall: c.Recall()}
			if p := points[5*i+j]; p != wp {
				t.Errorf("point %d: %+v, want %+v (%d TP / %d FP)", 5*i+j, p, wp, c.TP, c.FP)
			}
		}
	}
	if best := BestFigure9(points); best != points[0] {
		t.Errorf("best point %+v, want %+v", best, points[0])
	}
	if want := (stats.Confusion{TP: 13498, FP: 0, FN: 25850}); se != want {
		t.Errorf("SmartEmbed %+v, want %+v", se, want)
	}
}

func TestFigure9Shape(t *testing.T) {
	points, se := figure9Seed1(t)
	if len(points) != 3*5*5 {
		t.Fatalf("points: %d", len(points))
	}
	// Precision grows and recall falls with epsilon (per N, eta fixed).
	byKey := map[[2]int]map[float64]PRPoint{}
	for _, p := range points {
		k := [2]int{p.N, int(p.Eta * 10)}
		if byKey[k] == nil {
			byKey[k] = map[float64]PRPoint{}
		}
		byKey[k][p.Epsilon] = p
	}
	for k, series := range byKey {
		if series[50].Recall < series[90].Recall {
			t.Errorf("N=%d eta=%.1f: recall should fall with epsilon (%.3f -> %.3f)",
				k[0], float64(k[1])/10, series[50].Recall, series[90].Recall)
		}
		if series[90].Precision+1e-9 < series[50].Precision {
			t.Errorf("N=%d eta=%.1f: precision should rise with epsilon (%.3f -> %.3f)",
				k[0], float64(k[1])/10, series[50].Precision, series[90].Precision)
		}
	}
	// The best-F1 combination must beat the SmartEmbed reference on recall
	// while keeping comparable precision.
	best := BestFigure9(points)
	if best.Recall <= se.Recall() {
		t.Errorf("best sweep recall %.3f should exceed SmartEmbed %.3f", best.Recall, se.Recall())
	}
	if best.Precision < 0.85 {
		t.Errorf("best sweep precision: %.3f", best.Precision)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	t1 := RenderTable1(Table1(1))
	if !strings.Contains(t1, "CCC") || !strings.Contains(t1, "Reentrancy") {
		t.Error("table 1 render incomplete")
	}
	t2 := RenderTable2(Table2(1))
	if !strings.Contains(t2, "Statements") {
		t.Error("table 2 render incomplete")
	}
	res := Study(1, 0.004)
	st := RenderStudy(res)
	for _, want := range []string{"Table 4", "Table 5", "Table 6", "Table 7", "Table 8", "Spearman"} {
		if !strings.Contains(st, want) {
			t.Errorf("study render missing %q", want)
		}
	}
	t3 := RenderTable3(table3Seed1(t))
	if !strings.Contains(t3, "Hidden State Update") {
		t.Error("table 3 render incomplete")
	}
	pts, se := figure9Seed1(t)
	f9 := RenderFigure9(pts, se)
	if !strings.Contains(f9, "N-gram size 3") || !strings.Contains(f9, "eta=0.9") {
		t.Error("figure 9 render incomplete")
	}
	_ = ccc.Categories
}

func TestTable1Deterministic(t *testing.T) {
	a := Table1(7)
	b := Table1(7)
	for i := range a {
		if a[i].TotalTP != b[i].TotalTP || a[i].TotalFP != b[i].TotalFP {
			t.Fatalf("tool %s differs across runs", a[i].Tool)
		}
	}
}

// TestBaselinesRefuseSnippetDatasets documents the paper's core motivation:
// on the Functions/Statements derivations every baseline refuses most files,
// while CCC analyzes all of them.
func TestBaselinesRefuseSnippetDatasets(t *testing.T) {
	orig := dataset.GenerateSmartBugs(1)
	fns := dataset.DeriveFunctions(orig)
	total := fns.Labels()
	cccRow := evalTool("CCC", cccAsTool, fns, total)
	if cccRow.Refused != 0 {
		t.Errorf("CCC refused %d snippet files", cccRow.Refused)
	}
	for _, tool := range baseline.Tools() {
		row := evalTool(tool.Name(), tool.Analyze, fns, total)
		if row.Refused*2 < len(fns.Files) {
			t.Errorf("%s refused only %d of %d snippet files", tool.Name(), row.Refused, len(fns.Files))
		}
	}
}
