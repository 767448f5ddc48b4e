package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/solidity"
)

// Site identifies a Q&A website.
type Site string

// The two crawled sites.
const (
	StackOverflow Site = "Stack Overflow"
	EthereumSE    Site = "Ethereum Stack Exchange"
)

// Post is one Q&A post tagged "solidity".
type Post struct {
	Site     Site
	ID       string
	Created  time.Time
	Views    int
	Snippets []Snippet
}

// SnippetKind classifies generated snippet content.
type SnippetKind int

// Snippet content kinds.
const (
	KindSolidity SnippetKind = iota // parsable Solidity
	KindPseudo                      // Solidity-flavored pseudo code (keyword pass, parse fail)
	KindJS                          // JavaScript/web3 (fails keyword filter)
	KindProse                       // plain text (fails keyword filter)
)

// Snippet is one code block inside a post.
type Snippet struct {
	ID      string
	PostID  string
	Site    Site
	Created time.Time
	Views   int
	Kind    SnippetKind
	Source  string
	// Template names the vulnerable template the snippet derives from
	// (generator ground truth; "" for benign/non-Solidity snippets).
	Template string
	// Viral marks snippets designated as popular disseminators: the
	// sanctuary generator plants clone counts correlated with their views.
	Viral bool
}

// QAConfig parameterizes the Q&A corpus generator.
type QAConfig struct {
	Seed int64
	// Scale shrinks the paper's corpus size (1.0 ≈ 39,434 snippets).
	Scale float64
}

// QACorpus is the generated crawl result.
type QACorpus struct {
	Posts    []Post
	Snippets []Snippet // flattened
}

// paper-scale counts (Table 4).
const (
	paperSOPosts     = 7370
	paperSOSnippets  = 12111
	paperESEPosts    = 18283
	paperESESnippets = 27323
)

// crawlEnd is the paper's crawl cutoff (June 30, 2023).
var crawlEnd = time.Date(2023, 6, 30, 0, 0, 0, 0, time.UTC)
var crawlStart = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

// GenerateQA builds the Q&A snippet corpus: a mix of parsable Solidity
// (contract/function/statement shapes), Solidity-flavored pseudo-code,
// JavaScript and prose, with per-post view counts and timestamps. The mix
// reproduces the funnel proportions of Table 4.
func GenerateQA(cfg QAConfig) QACorpus {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := NewMutator(cfg.Seed + 7)

	var corpus QACorpus
	gen := func(site Site, posts, snippets int) {
		perPost := float64(snippets) / float64(posts)
		for p := 0; p < posts; p++ {
			created := crawlStart.Add(time.Duration(rng.Int63n(int64(crawlEnd.Sub(crawlStart)))))
			views := int(math.Exp(rng.NormFloat64()*1.5 + 7))
			post := Post{
				Site:    site,
				ID:      fmt.Sprintf("%s-%d", siteSlug(site), p),
				Created: created,
				Views:   views,
			}
			n := 1
			if rng.Float64() < perPost-1 {
				n = 2
			}
			if rng.Float64() < 0.1 {
				n++
			}
			for s := 0; s < n; s++ {
				sn := generateSnippet(rng, m, fmt.Sprintf("%s-s%d", post.ID, s))
				sn.PostID = post.ID
				sn.Site = site
				sn.Created = created
				sn.Views = views
				post.Snippets = append(post.Snippets, sn)
				corpus.Snippets = append(corpus.Snippets, sn)
			}
			corpus.Posts = append(corpus.Posts, post)
		}
	}
	gen(StackOverflow, scaleCount(paperSOPosts, cfg.Scale), scaleCount(paperSOSnippets, cfg.Scale))
	gen(EthereumSE, scaleCount(paperESEPosts, cfg.Scale), scaleCount(paperESESnippets, cfg.Scale))
	return corpus
}

func scaleCount(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 10 {
		v = 10
	}
	return v
}

func siteSlug(s Site) string {
	if s == StackOverflow {
		return "so"
	}
	return "ese"
}

// generateSnippet draws one snippet according to the Table 4 mix:
// ~50% parsable Solidity, ~15% Solidity-flavored pseudo code, ~20% JS,
// ~15% prose. Parsable Solidity splits into contract (54.2%), function
// (38%) and statement (7.8%) shapes; about a quarter derive from vulnerable
// templates, and ~6% are duplicates of canonical forms.
func generateSnippet(rng *rand.Rand, m *Mutator, id string) Snippet {
	r := rng.Float64()
	switch {
	case r < 0.50:
		return solibitySnippet(rng, m, id)
	case r < 0.65:
		return Snippet{ID: id, Kind: KindPseudo, Source: pseudoSnippet(rng)}
	case r < 0.85:
		return Snippet{ID: id, Kind: KindJS, Source: jsSnippet(rng)}
	default:
		return Snippet{ID: id, Kind: KindProse, Source: proseSnippet(rng)}
	}
}

func solibitySnippet(rng *rand.Rand, m *Mutator, id string) Snippet {
	r := rng.Float64()
	var src, tmplName string
	switch {
	case r < 0.27:
		// Genuinely vulnerable snippet.
		t := vulnTemplates[rng.Intn(len(vulnTemplates))]
		src = t.Source
		tmplName = t.Name
	case r < 0.36:
		// Benign decoy: unconventionally mitigated code that baits
		// pattern-based detection (snippet false positives, Section 6.5).
		src = decoyTemplates[rng.Intn(len(decoyTemplates))].Source
	default:
		src = mitigatedTemplates[rng.Intn(len(mitigatedTemplates))]
	}
	// Duplicate posting: keep the canonical source untouched (~6%).
	duplicate := rng.Float64() < 0.06
	if !duplicate {
		src = m.Mutate(src, rng.Intn(3))
	}
	// Shape: contract 54.2%, function 38%, statements 7.8%.
	shape := rng.Float64()
	switch {
	case shape < 0.542:
		// keep the contract form
	case shape < 0.922:
		if fn := firstFunction(src); fn != "" {
			src = fn
		}
	default:
		if st := firstStatements(src, 1+rng.Intn(5)); st != "" {
			src = st
		}
	}
	// Non-duplicate snippets carry the poster's own surrounding code:
	// unique inert statements that individualize the snippet (and survive
	// CCD normalization via their undeclared identifiers).
	if !duplicate {
		src = insertUniqueStatements(rng, src)
	}
	return Snippet{
		ID:       id,
		Kind:     KindSolidity,
		Source:   src,
		Template: tmplName,
		Viral:    rng.Float64() < 0.25,
	}
}

// insertUniqueStatements splices 2-3 harmless statements with unique
// undeclared identifiers into the first function body (or prepends them to
// statement-shaped snippets).
func insertUniqueStatements(rng *rand.Rand, src string) string {
	n := 2 + rng.Intn(2)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		tag := rng.Intn(90000) + 10000
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "\n\t\tmark%d = mark%d + %d;", tag, tag, rng.Intn(900)+1)
		case 1:
			fmt.Fprintf(&sb, "\n\t\tslot%d = %d;", tag, rng.Intn(9000)+1)
		case 2:
			fmt.Fprintf(&sb, "\n\t\temit Trace%d(%d);", tag, rng.Intn(100))
		default:
			fmt.Fprintf(&sb, "\n\t\tstep%d = step%d | %d;", tag, tag, rng.Intn(255)+1)
		}
	}
	ins := sb.String()
	// Find the opening brace of the first function-like body.
	idx := -1
	for _, kw := range []string{"function", "constructor", "modifier"} {
		if k := strings.Index(src, kw); k >= 0 && (idx == -1 || k < idx) {
			idx = k
		}
	}
	if idx >= 0 {
		if b := strings.IndexByte(src[idx:], '{'); b >= 0 {
			p := idx + b + 1
			return src[:p] + ins + src[p:]
		}
	}
	// Statement shape: prepend.
	return strings.TrimPrefix(ins, "\n") + "\n" + src
}

func firstFunction(src string) string {
	unit, _ := solidity.Parse(src)
	defer unit.Release()
	var out string
	solidity.Walk(unit, func(n solidity.Node) bool {
		if out != "" {
			return false
		}
		if fn, ok := n.(*solidity.FunctionDecl); ok && fn.Body != nil && len(fn.Body.Stmts) > 0 {
			s, e := fn.Pos().Offset, fn.End().Offset
			if s >= 0 && e > s && e <= len(src) {
				out = src[s:e]
			}
			return false
		}
		return true
	})
	return out
}

func firstStatements(src string, maxStmts int) string {
	unit, _ := solidity.Parse(src)
	defer unit.Release()
	var parts []string
	solidity.Walk(unit, func(n solidity.Node) bool {
		if len(parts) >= maxStmts {
			return false
		}
		if fn, ok := n.(*solidity.FunctionDecl); ok && fn.Body != nil {
			for _, st := range fn.Body.Stmts {
				if len(parts) >= maxStmts {
					break
				}
				s, e := st.Pos().Offset, st.End().Offset
				if s >= 0 && e > s && e <= len(src) {
					parts = append(parts, strings.TrimSpace(src[s:e]))
				}
			}
			return false
		}
		return true
	})
	return strings.Join(parts, "\n")
}

// pseudoLines mix Solidity keywords (so the keyword filter passes) with
// natural-language punctuation that defeats even the fuzzy grammar.
var pseudoLines = []string{
	"contract MyToken should have a mapping balances, or a struct maybe?",
	"then call transfer(to, amount) and check, did require succeed?",
	"function withdraw() ... but where, exactly, does onlyOwner go?",
	"if owner == msg.sender then selfdestruct, else revert the payable, ok?",
	"mapping(address => uint) but how do I iterate it, with keys??",
	"constructor takes the address, then: owner = ???",
	"first pragma solidity, second the contract, third deploy, right?",
}

func pseudoSnippet(rng *rand.Rand) string {
	n := 2 + rng.Intn(3)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(pseudoLines[rng.Intn(len(pseudoLines))])
		sb.WriteByte('\n')
	}
	return sb.String()
}

var jsLines = []string{
	"const Web3 = require('web3');",
	"const web3 = new Web3('http://localhost:8545');",
	"const instance = await MyContract.deployed();",
	"await instance.methods.withdraw(amount).send({from: accounts[0]});",
	"const receipt = await web3.eth.sendTransaction({to: addr, value: 1});",
	"console.log(await web3.eth.getBalance(accounts[0]));",
	"truffle migrate --reset --network development",
}

func jsSnippet(rng *rand.Rand) string {
	n := 2 + rng.Intn(4)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(jsLines[rng.Intn(len(jsLines))])
		sb.WriteByte('\n')
	}
	return sb.String()
}

var proseLines = []string{
	"You need to compile it first, then deploy with remix.",
	"The gas estimation fails because the node is out of sync.",
	"Check the ABI and make sure the account is unlocked.",
	"This error usually means the nonce is wrong, reset the account.",
}

func proseSnippet(rng *rand.Rand) string {
	return proseLines[rng.Intn(len(proseLines))]
}

// --- keyword filter ---------------------------------------------------------

// solidityOnlyKeywords are keywords unique to Solidity after removing those
// shared with JavaScript (the paper reduces 251 Solidity keywords to 166
// unique ones; this list covers the discriminative core).
var solidityOnlyKeywords = []string{
	"pragma", "solidity", "contract", "mapping", "uint", "uint8", "uint16",
	"uint32", "uint64", "uint128", "uint256", "int8", "int16", "int256",
	"bytes32", "bytes4", "address", "payable", "modifier", "emit", "wei",
	"gwei", "szabo", "finney", "ether", "msg.sender", "msg.value",
	"keccak256", "sha3", "revert(", "selfdestruct", "suicide",
	"delegatecall", "staticcall", "calldata", "memory", "storage",
	"constructor(", "immutable", "unchecked", "assembly", "indexed",
	"onlyOwner", "tx.origin", "block.timestamp", "block.number",
	"balanceOf", "transferFrom", "internal", "external", "view returns",
	"pure returns", "is Ownable", "receive()", "fallback()",
}

// IsSolidityLike implements the keyword filter of Section 6.1: a snippet
// passes when it contains at least one Solidity-unique keyword.
func IsSolidityLike(src string) bool {
	for _, kw := range solidityOnlyKeywords {
		if strings.Contains(src, kw) {
			return true
		}
	}
	return false
}
