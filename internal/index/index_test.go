package index

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ccd"
)

const (
	parsableSrc = `contract Bank {
	mapping(address => uint) balances;
	function withdraw(uint amount) public {
		require(balances[msg.sender] >= amount);
		balances[msg.sender] -= amount;
		msg.sender.transfer(amount);
	}
	function deposit() public payable { balances[msg.sender] += msg.value; }
}`
	otherSrc = `contract Token {
	mapping(address => uint) ledger;
	uint total;
	function mint(address to, uint amount) public {
		ledger[to] += amount;
		total += amount;
	}
	function burn(uint amount) public { ledger[msg.sender] -= amount; total -= amount; }
}`
)

func mustBackend(t *testing.T, name string, cfg Config) Backend {
	t.Helper()
	b, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sourceDoc(t *testing.T, id, src string) Doc {
	t.Helper()
	fp, err := ccd.FingerprintSource(src)
	if err != nil {
		t.Fatalf("fingerprint %s: %v", id, err)
	}
	return Doc{ID: id, Source: src, FP: fp}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{BackendCCD, BackendSSDeep, BackendSmartEmbed} {
		if !Known(want) {
			t.Fatalf("backend %q not registered (have %v)", want, names)
		}
	}
	if _, err := New("bogus", Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestBackendsEndToEnd: every backend indexes parsable source docs and ranks
// an identical-source query first with the maximum score.
func TestBackendsEndToEnd(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b := mustBackend(t, name, Config{})
			if err := b.Add(sourceDoc(t, "bank", parsableSrc)); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(sourceDoc(t, "token", otherSrc)); err != nil {
				t.Fatal(err)
			}
			if b.Len() != 2 {
				t.Fatalf("len %d", b.Len())
			}
			q := &Query{Doc: sourceDoc(t, "", parsableSrc), K: 1, Ctx: context.Background()}
			ms, stats := b.MatchTopK(q)
			if len(ms) != 1 || ms[0].ID != "bank" {
				t.Fatalf("top match %v, want bank", ms)
			}
			if ms[0].Score < 99.9 {
				t.Fatalf("identical source scored %.2f", ms[0].Score)
			}
			if stats.Candidates == 0 {
				t.Fatal("no candidates reported")
			}
		})
	}
}

// TestBackendSnapshotRoundTrip: snapshot → restore preserves the match
// behavior of every backend, and restoring foreign bytes fails cleanly.
func TestBackendSnapshotRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b := mustBackend(t, name, Config{})
			for i, src := range []string{parsableSrc, otherSrc} {
				if err := b.Add(sourceDoc(t, fmt.Sprintf("doc-%d", i), src)); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}

			restored := mustBackend(t, name, Config{})
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if restored.Len() != b.Len() {
				t.Fatalf("restored %d docs, want %d", restored.Len(), b.Len())
			}
			q := &Query{Doc: sourceDoc(t, "", parsableSrc), K: 0}
			want, _ := b.MatchTopK(q)
			got, _ := restored.MatchTopK(&Query{Doc: sourceDoc(t, "", parsableSrc), K: 0})
			if len(got) != len(want) {
				t.Fatalf("restored match count %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("restored match %d: %v, want %v", i, got[i], want[i])
				}
			}

			// Truncations must error, never panic or half-load.
			raw := buf.Bytes()
			for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
				fresh := mustBackend(t, name, Config{})
				if err := fresh.Restore(bytes.NewReader(raw[:cut])); err == nil {
					t.Fatalf("truncated snapshot at %d accepted", cut)
				}
			}
			// Foreign magic must be refused.
			for _, other := range Names() {
				if other == name {
					continue
				}
				fresh := mustBackend(t, other, Config{})
				if err := fresh.Restore(bytes.NewReader(raw)); err == nil {
					t.Fatalf("%s restored a %s snapshot", other, name)
				}
			}
		})
	}
}

// TestBackendMerge: merging segments — two, or a whole cascade in one build
// — preserves every document in argument order, and refuses cross-kind
// merges.
func TestBackendMerge(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := mustBackend(t, name, Config{})
			b := mustBackend(t, name, Config{})
			c := mustBackend(t, name, Config{})
			if err := a.Add(sourceDoc(t, "a", parsableSrc)); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(sourceDoc(t, "b", otherSrc)); err != nil {
				t.Fatal(err)
			}
			if err := c.Add(sourceDoc(t, "c", parsableSrc)); err != nil {
				t.Fatal(err)
			}
			m, err := a.Merge(b)
			if err != nil {
				t.Fatal(err)
			}
			if m.Len() != 2 {
				t.Fatalf("merged len %d", m.Len())
			}
			all, err := a.Merge(b, c)
			if err != nil {
				t.Fatal(err)
			}
			if ids := all.(IDLister).IDs(); fmt.Sprint(ids) != "[a b c]" {
				t.Fatalf("three-way merge holds %v, want [a b c]", ids)
			}
			if a.Len() != 1 || m.Len() != 2 {
				t.Fatalf("merge changed its inputs: %d and %d docs", a.Len(), m.Len())
			}
			ms, _ := m.MatchTopK(&Query{Doc: sourceDoc(t, "", otherSrc), K: 1})
			if len(ms) != 1 || ms[0].ID != "b" {
				t.Fatalf("merged match %v", ms)
			}
		})
	}
	ccdB := mustBackend(t, BackendCCD, Config{})
	ssdB := mustBackend(t, BackendSSDeep, Config{})
	if _, err := ccdB.Merge(ssdB); err == nil {
		t.Fatal("cross-kind merge accepted")
	}
}

func TestSmartEmbedRequiresSource(t *testing.T) {
	b := mustBackend(t, BackendSmartEmbed, Config{})
	err := b.Add(Doc{ID: "fp-only", FP: "QxRtYuIoPAbCdEfGh"})
	if err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("fingerprint-only doc error %v, want ErrDocUnsupported", err)
	}
	if err := b.Add(Doc{ID: "garbage", Source: "not solidity {{{"}); err == nil {
		t.Fatal("unparsable source accepted")
	}
	if b.Len() != 0 {
		t.Fatalf("len %d after refused adds", b.Len())
	}
	// A query without parsable source matches nothing (no panic).
	if err := b.Add(sourceDoc(t, "ok", parsableSrc)); err != nil {
		t.Fatal(err)
	}
	ms, _ := b.MatchTopK(&Query{Doc: Doc{FP: "QxRtYuIoP"}, K: 5})
	if len(ms) != 0 {
		t.Fatalf("fingerprint-only query matched %v on smartembed", ms)
	}
}

// TestSSDeepComparisonRules: digests are scored only across compatible block
// sizes, fingerprint-only docs stay comparable with each other, and the
// length-difference upper bound never prunes a true match.
func TestSSDeepComparisonRules(t *testing.T) {
	if got := len(comparePairs(ssdDigest{bs: 3}, ssdDigest{bs: 12})); got != 0 {
		t.Fatalf("4x block-size gap produced %d comparable pairs", got)
	}
	if got := len(comparePairs(ssdDigest{bs: 6}, ssdDigest{bs: 3})); got != 1 {
		t.Fatalf("2x block-size gap produced %d comparable pairs, want 1", got)
	}
	if got := len(comparePairs(ssdDigest{bs: 6}, ssdDigest{bs: 6})); got != 2 {
		t.Fatalf("equal block sizes produced %d comparable pairs, want 2", got)
	}

	b := mustBackend(t, BackendSSDeep, Config{Epsilon: 1})
	long := ccd.Fingerprint(strings.Repeat("QxRtYuIoPAbCdEfGh.", 40))
	if err := b.Add(Doc{ID: "fp", FP: long}); err != nil {
		t.Fatal(err)
	}
	ms, stats := b.MatchTopK(&Query{Doc: Doc{FP: long}, K: 1})
	if len(ms) != 1 || ms[0].Score != 100 {
		t.Fatalf("identical fingerprint digest: %v (stats %+v)", ms, stats)
	}
}

// TestSSDeepDegenerateSignatures is the representation-mismatch regression:
// the same document ingested with source+fingerprint and queried by
// fingerprint alone (the bulk-load and corpus-self-join shape) must stay
// block-size comparable and score 100 — digesting the source on one side
// and the fingerprint on the other produced len(pairs) == 0 (block sizes
// beyond the 2× window) or score 0 (same block size, disjoint signatures)
// for identical documents. Very short inputs are the boundary: their
// signatures collapse to a handful of characters, so any representation
// skew is fatal rather than merely lossy.
func TestSSDeepDegenerateSignatures(t *testing.T) {
	// Identical document, both representation shapes, across sizes from the
	// degenerate near-empty fingerprint up to one long enough that the raw
	// source's digest used a larger block size.
	sources := []string{
		"contract T { function f() public { } }", // near-empty fingerprint
		parsableSrc,
		parsableSrc + strings.Repeat("\ncontract Pad { function p() public { uint z; z = 1; } }", 6),
	}
	for i, src := range sources {
		d := sourceDoc(t, fmt.Sprintf("doc-%d", i), src)
		if len(d.FP) == 0 {
			t.Fatalf("source %d produced an empty fingerprint", i)
		}
		qd := digestDoc(Doc{FP: d.FP})
		ed := digestDoc(d)
		if pairs := comparePairs(qd, ed); len(pairs) == 0 {
			t.Fatalf("source %d: identical doc has no comparable pairs (query %q vs entry %q)",
				i, qd.String(), ed.String())
		}
		b := mustBackend(t, BackendSSDeep, Config{CCD: ccd.DefaultConfig})
		if err := b.Add(d); err != nil {
			t.Fatal(err)
		}
		ms, stats := b.MatchTopK(&Query{Doc: Doc{FP: d.FP}, K: 1})
		if len(ms) != 1 || ms[0].Score != 100 {
			t.Fatalf("source %d: fingerprint query against source-ingested doc: %v (stats %+v)", i, ms, stats)
		}
	}

	// Identical very-short fingerprints: signatures are 1-2 characters (or
	// empty), and identity must still score 100.
	for _, fp := range []ccd.Fingerprint{"Q", "Qx", "Qx.Rt"} {
		b := mustBackend(t, BackendSSDeep, Config{CCD: ccd.DefaultConfig})
		if err := b.Add(Doc{ID: "tiny", FP: fp}); err != nil {
			t.Fatal(err)
		}
		ms, _ := b.MatchTopK(&Query{Doc: Doc{FP: fp}, K: 0})
		if len(ms) != 1 || ms[0].Score != 100 {
			t.Fatalf("identical tiny fingerprint %q: %v", fp, ms)
		}
	}

	// Source-only documents (no fingerprint anywhere) keep digesting the
	// source and stay comparable with each other.
	b := mustBackend(t, BackendSSDeep, Config{CCD: ccd.DefaultConfig})
	if err := b.Add(Doc{ID: "src-only", Source: parsableSrc}); err != nil {
		t.Fatal(err)
	}
	ms, _ := b.MatchTopK(&Query{Doc: Doc{Source: parsableSrc}, K: 0})
	if len(ms) != 1 || ms[0].Score != 100 {
		t.Fatalf("identical source-only doc: %v", ms)
	}
}
