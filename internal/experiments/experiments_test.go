package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/dataset"
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

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 3 honeypot corpus is expensive; run without -short")
	}
	res := Table3(1, ccd.DefaultConfig)
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

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 9 sweeps 75 parameter combinations; run without -short")
	}
	points, se := Figure9(1)
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
	// The Table 3 and Figure 9 renders each regenerate their corpus / sweep
	// the full parameter grid; keep CI fast.
	if testing.Short() {
		t.Skip("Table 3 / Figure 9 renders are expensive; run without -short")
	}
	t3 := RenderTable3(Table3(1, ccd.DefaultConfig))
	if !strings.Contains(t3, "Hidden State Update") {
		t.Error("table 3 render incomplete")
	}
	pts, se := Figure9(1)
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
