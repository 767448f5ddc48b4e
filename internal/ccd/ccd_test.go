package ccd

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// The paper's Section 5.2 example.
const paperSnippet = `contract Test {
	function test(uint amount) {
		msg.sender.transfer(amount);
	}
}`

func TestNormalizePaperExample(t *testing.T) {
	nu, err := Normalize(paperSnippet)
	if err != nil {
		t.Fatal(err)
	}
	if len(nu.Contracts) != 1 || len(nu.Contracts[0].Functions) != 1 {
		t.Fatalf("shape: %+v", nu)
	}
	got := strings.Join(nu.Contracts[0].Functions[0], " ")
	want := "function f ( uint ) { msg . sender . transfer ( uint ) ; }"
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	if strings.Join(nu.Contracts[0].Header, " ") != "contract c {" {
		t.Errorf("header: %v", nu.Contracts[0].Header)
	}
}

func TestNormalizeTypeIClone(t *testing.T) {
	// Whitespace and comments do not affect normalization.
	a := paperSnippet
	b := "contract Test{/*hi*/function test(uint amount){msg.sender.transfer(amount); // send\n}}"
	fa, _ := FingerprintSource(a)
	fb, _ := FingerprintSource(b)
	if fa != fb {
		t.Errorf("Type I clone fingerprints differ: %q vs %q", fa, fb)
	}
}

func TestNormalizeTypeIIClone(t *testing.T) {
	// Renamed identifiers and changed string literals normalize away.
	b := `contract Wallet {
		function payout(uint value) {
			msg.sender.transfer(value);
		}
	}`
	fa, _ := FingerprintSource(paperSnippet)
	fb, _ := FingerprintSource(b)
	if fa != fb {
		t.Errorf("Type II clone fingerprints differ: %q vs %q", fa, fb)
	}
}

func TestNumericConstantsPreserved(t *testing.T) {
	a := `function f() public { x = 100; }`
	b := `function f() public { x = 200; }`
	fa, _ := FingerprintSource(a)
	fb, _ := FingerprintSource(b)
	if fa == fb {
		t.Error("different numeric constants must yield different fingerprints")
	}
}

func TestVisibilityRemoved(t *testing.T) {
	a := `function f(uint x) public view { return x; }`
	b := `function f(uint x) { return x; }`
	fa, _ := FingerprintSource(a)
	fb, _ := FingerprintSource(b)
	if fa != fb {
		t.Errorf("visibility should normalize away: %q vs %q", fa, fb)
	}
}

func TestStateVarAndEventDeclsSkipped(t *testing.T) {
	a := `contract C {
		uint total;
		event Done(uint x);
		function f() public { total = 1; }
	}`
	b := `contract C {
		function f() public { total = 1; }
		uint total;
	}`
	fa, _ := FingerprintSource(a)
	fb, _ := FingerprintSource(b)
	if fa != fb {
		t.Errorf("declaration order/presence should not matter: %q vs %q", fa, fb)
	}
}

func TestFigure5SimilarSnippets(t *testing.T) {
	// The paper's Figure 5: same functions in different order with renamed
	// identifiers must score high.
	safe := `contract Safe {
		address owner;
		constructor() { owner = msg.sender; }
		function safeWithdraw(uint amount) {
			require(msg.sender == owner);
			msg.sender.transfer(amount);
		}
	}`
	unsafe := `contract Unsafe {
		function unsafeWithdraw(uint value) {
			msg.sender.transfer(value);
		}
		address deployer;
		constructor() { deployer = msg.sender; }
	}`
	fa, _ := FingerprintSource(safe)
	fb, _ := FingerprintSource(unsafe)
	// The constructor matches perfectly; the withdraw differs by the
	// require line. Order independence must keep the score high.
	score := similarity(fa, fb)
	if score < 70 {
		t.Errorf("Figure 5 pair score too low: %.1f", score)
	}
	if score >= 100 {
		t.Errorf("pair is not identical: %.1f", score)
	}
}

func TestOrderIndependence(t *testing.T) {
	a := `contract C {
		function f1(uint x) public { y = x + 1; }
		function f2(uint x) public { msg.sender.transfer(x); }
	}`
	b := `contract C {
		function f2(uint x) public { msg.sender.transfer(x); }
		function f1(uint x) public { y = x + 1; }
	}`
	fa, _ := FingerprintSource(a)
	fb, _ := FingerprintSource(b)
	if fa == fb {
		t.Fatal("fingerprints should differ in order")
	}
	if s := similarity(fa, fb); s != 100 {
		t.Errorf("order-swapped contracts should score 100, got %.1f", s)
	}
}

func TestSimilaritySelf(t *testing.T) {
	fa, _ := FingerprintSource(paperSnippet)
	if s := similarity(fa, fa); s != 100 {
		t.Errorf("self similarity: %.1f", s)
	}
}

func TestSimilarityContainmentSymmetric(t *testing.T) {
	// A snippet fully contained in a larger contract scores 100: Algorithm 1
	// is evaluated from the smaller side (every snippet sub-fingerprint has
	// a perfect counterpart), whichever argument order the caller used.
	snippet := `function withdraw(uint amount) public {
		msg.sender.transfer(amount);
	}`
	contract := `contract Big {
		function withdraw(uint amount) public {
			msg.sender.transfer(amount);
		}
		function deposit() public payable { balances[msg.sender] += msg.value; }
		function other(uint x) public returns (uint) { return x * 2; }
	}`
	fs, _ := FingerprintSource(snippet)
	fc, _ := FingerprintSource(contract)
	sSnippet := similarity(fs, fc)
	if sSnippet < 90 {
		t.Errorf("contained snippet should score high: %.1f", sSnippet)
	}
	sContract := similarity(fc, fs)
	if sContract != sSnippet {
		t.Errorf("similarity should be symmetric: %.1f vs %.1f", sContract, sSnippet)
	}
}

// TestSimilarityAtLeastMatchesExact: the early-exit form says ok exactly when
// the exact Algorithm 1 score reaches the threshold, the score itself
// included, and then returns the same float. Checked on four hand-written sources and on every pair of a
// small generated world, snippets against deployed contracts included, which
// is where sub-fingerprints have the lengths a corpus match sees.
func TestSimilarityAtLeastMatchesExact(t *testing.T) {
	srcs := []string{
		paperSnippet,
		`contract A { function f(uint x) public { y = x; } }`,
		`contract B { function g() public { msg.sender.transfer(1); } function h() public {} }`,
		`function lone(address a) public { a.send(2); }`,
	}
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: 19, Scale: 0.002})
	for _, sn := range qa.Snippets {
		srcs = append(srcs, sn.Source)
	}
	for _, dc := range dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: 20, Scale: 0.0004}, qa) {
		srcs = append(srcs, dc.Source)
	}
	fps := []Fingerprint{""} // one empty fingerprint; prose snippets would add many
	for _, s := range srcs {
		if fp, _ := FingerprintSource(s); fp != "" {
			fps = append(fps, fp)
		}
	}
	for _, f1 := range fps {
		for _, f2 := range fps {
			exact := exactSimilarity(f1, f2)
			// exact itself is the tie a top-K bound asks about: it must come
			// back (exact, true), and one ulp above it false.
			for _, th := range []float64{0, 50, 70, 90, exact, math.Nextafter(exact, math.Inf(1))} {
				got, ok := SimilarityAtLeast(f1, f2, th)
				if ok != (exact >= th) {
					t.Errorf("threshold %v: ok=%v exact=%.2f got=%.2f", th, ok, exact, got)
				}
				if ok && got != exact {
					t.Errorf("score mismatch: %v vs %v", got, exact)
				}
			}
		}
	}
	t.Logf("%d fingerprints, %d pairs", len(fps), len(fps)*len(fps))
}

func TestFingerprintSeparators(t *testing.T) {
	src := `contract A { function f() public {} function g() public {} }
contract B { function h() public {} }`
	fp, _ := FingerprintSource(src)
	if !strings.Contains(string(fp), string(rune(ContractSep))) {
		t.Errorf("missing contract separator: %q", fp)
	}
	if strings.Count(string(fp), string(rune(FuncSep))) != 1 {
		t.Errorf("function separator count: %q", fp)
	}
	// Contract A: header+f and g; contract B: header+h.
	if len(fp.Subs()) != 3 {
		t.Errorf("subs: %d (%q)", len(fp.Subs()), fp)
	}
}

func TestCorpusMatchExact(t *testing.T) {
	c := NewCorpus(DefaultConfig)
	if err := c.AddSource("orig", paperSnippet); err != nil {
		t.Fatal(err)
	}
	c.AddSource("other", `contract X { function different() public { selfdestruct(msg.sender); } }`)
	fp, _ := FingerprintSource(paperSnippet)
	got := c.MatchTopK(fp, 0)
	if len(got) != 1 || got[0].ID != "orig" || got[0].Score != 100 {
		t.Fatalf("got %v", got)
	}
}

func TestCorpusMatchTypeIII(t *testing.T) {
	// Near-miss clone: one statement added.
	c := NewCorpus(DefaultConfig)
	c.AddSource("orig", `contract Bank {
		function withdraw(uint amount) public {
			require(balances[msg.sender] >= amount);
			balances[msg.sender] -= amount;
			msg.sender.transfer(amount);
		}
	}`)
	clone := `contract MyBank {
		function take(uint value) public {
			require(balances[msg.sender] >= value);
			balances[msg.sender] -= value;
			lastWithdrawal = block.timestamp;
			msg.sender.transfer(value);
		}
	}`
	fp, _ := FingerprintSource(clone)
	got := c.MatchTopK(fp, 0)
	if len(got) != 1 {
		t.Fatalf("Type III clone not found: %v", got)
	}
	if got[0].Score < 70 || got[0].Score >= 100 {
		t.Errorf("score: %.1f", got[0].Score)
	}
}

func TestCorpusRejectsUnrelated(t *testing.T) {
	c := NewCorpus(DefaultConfig)
	c.AddSource("a", `contract Voting {
		mapping(address => bool) voted;
		function vote(uint candidate) public {
			require(!voted[msg.sender]);
			voted[msg.sender] = true;
			tally[candidate] += 1;
		}
	}`)
	fp, _ := FingerprintSource(`contract Token {
		function approve(address spender, uint value) public returns (bool) {
			allowed[msg.sender][spender] = value;
			emit Approval(msg.sender, spender, value);
			return true;
		}
	}`)
	if got := c.MatchTopK(fp, 0); len(got) != 0 {
		t.Fatalf("unrelated matched: %v", got)
	}
}

func TestMissingTypesDefaultToUint(t *testing.T) {
	// Parameters without types (snippet artifacts) default to uint.
	a := `function f(amount) { msg.sender.transfer(amount); }`
	b := `function f(uint amount) { msg.sender.transfer(amount); }`
	fa, ea := FingerprintSource(a)
	fb, eb := FingerprintSource(b)
	_ = ea
	_ = eb
	if fa != fb {
		t.Errorf("missing type should default to uint: %q vs %q", fa, fb)
	}
}

func TestFingerprintNeverContainsSeparatorFromTokens(t *testing.T) {
	f := func(src string) bool {
		fp, _ := FingerprintSource(src)
		// Separators appear only between sub-fingerprints, never doubled at
		// the start.
		s := string(fp)
		return !strings.HasPrefix(s, "..") && !strings.HasPrefix(s, "::")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		fa, _ := FingerprintSource(a)
		fb, _ := FingerprintSource(b)
		s := similarity(fa, fb)
		return s >= 0 && s <= 100 && s == exactSimilarity(fa, fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
