package ngram

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestGrams(t *testing.T) {
	got := Grams("abcde", 3)
	want := []string{"abc", "bcd", "cde"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gram %d: %q", i, got[i])
		}
	}
}

func TestGramsDedupe(t *testing.T) {
	got := Grams("aaaaaa", 3)
	if len(got) != 1 || got[0] != "aaa" {
		t.Fatalf("got %v", got)
	}
}

func TestGramsShortString(t *testing.T) {
	got := Grams("ab", 3)
	if len(got) != 1 || got[0] != "ab" {
		t.Fatalf("got %v", got)
	}
	if Grams("", 3) != nil {
		t.Error("empty string should have no grams")
	}
}

func TestQueryExactMatch(t *testing.T) {
	ix := New(3)
	ix.Add("a", "DG.TMQDZlrCnLVyLrmZl")
	ix.Add("b", "XXXXXXXXXXXXXXXXXXXX")
	got, _ := queryString(ix, "DG.TMQDZlrCnLVyLrmZl", 0.5)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("got %v", got)
	}
	if got[0].Containment != 1 {
		t.Errorf("containment: %v", got[0].Containment)
	}
}

func TestQueryThreshold(t *testing.T) {
	ix := New(3)
	ix.Add("half", "abcdefghij")
	// Query shares exactly the first half of its grams with "half".
	got, _ := queryString(ix, "abcdefghijKLMNOPQRST", 0.4)
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	got, _ = queryString(ix, "abcdefghijKLMNOPQRST", 0.9)
	if len(got) != 0 {
		t.Fatalf("eta=0.9 should filter out, got %v", got)
	}
}

func TestQueryOrdering(t *testing.T) {
	ix := New(3)
	ix.Add("close", "abcdefghij")
	ix.Add("far", "abcdexxxxx")
	got, _ := queryString(ix, "abcdefghij", 0.1)
	if len(got) != 2 || got[0].ID != "close" {
		t.Fatalf("got %v", got)
	}
}

func TestQuerySelfRetrieval(t *testing.T) {
	// Any indexed string must retrieve itself at eta=1.
	f := func(s string) bool {
		if len(s) == 0 {
			return true
		}
		ix := New(3)
		ix.Add("self", s)
		got, _ := queryString(ix, s, 1.0)
		for _, c := range got {
			if c.ID == "self" {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// queryString retrieves s at eta through QueryGramsScratch with a fresh
// Scratch.
func queryString(ix *Index, s string, eta float64) ([]Candidate, Stats) {
	var sc Scratch
	return ix.QueryGramsScratch(ix.Grams(s), eta, &sc)
}

// referenceQuery is the seed's term-at-a-time scan: decompress every posting
// list of every query gram into plain sorted []uint32 (the uncompressed
// representation the seed stored directly), count postings into a map, keep
// docs reaching η·|Q|. The pruned QueryGramsScratch over the
// block-compressed lists must reproduce it exactly.
func referenceQuery(ix *Index, s string, eta float64) []Candidate {
	grams := ix.Grams(s)
	if len(grams) == 0 {
		return nil
	}
	counts := make(map[uint32]int)
	for _, g := range grams {
		p := ix.postings[g]
		if p == nil {
			continue
		}
		for _, d := range p.appendAll(nil, ix.blockSize) {
			counts[d]++
		}
	}
	need := eta * float64(len(grams))
	var out []Candidate
	for d, c := range counts {
		if float64(c) >= need {
			out = append(out, Candidate{
				ID:          ix.docID(d),
				Doc:         int(d),
				Containment: float64(c) / float64(len(grams)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Containment != out[j].Containment {
			return out[i].Containment > out[j].Containment
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// TestQueryMatchesReferenceScan: block-compressed retrieval with η pruning is
// an exact optimization — same candidates, same containments, same order as
// the uncompressed full scan, across random corpora, thresholds, posting
// block sizes (1 = every id its own block, up to larger-than-any-list), and
// every representation of the same index: freshly built, Save/Load
// round-tripped, and opened zero-copy over the encoded bytes (the mmap'd
// segment form). One reused Scratch serves all queries, so scratch reuse is
// pinned to be invisible too.
func TestQueryMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcdefgh" // small alphabet forces heavy gram sharing
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	blockSizes := []int{1, 3, 7, 128}
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		ix := NewWithBlock(3, blockSizes[trial%len(blockSizes)])
		docs := 1 + rng.Intn(40)
		for d := 0; d < docs; d++ {
			ix.Add(fmt.Sprintf("doc-%d", d), randStr(1+rng.Intn(60)))
		}

		var enc bytes.Buffer
		if err := ix.Save(&enc); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		loaded, err := Load(enc.Bytes())
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		mapped, err := FromBytes(enc.Bytes())
		if err != nil {
			t.Fatalf("trial %d: from bytes: %v", trial, err)
		}

		for q := 0; q < 10; q++ {
			query := randStr(1 + rng.Intn(60))
			eta := float64(rng.Intn(11)) / 10
			want := referenceQuery(ix, query, eta)
			got, st := queryString(ix, query, eta)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d eta=%.1f query=%q:\n got %v\nwant %v", trial, eta, query, got, want)
			}
			if st.Kept != len(got) {
				t.Fatalf("stats kept=%d, returned %d", st.Kept, len(got))
			}
			for name, form := range map[string]*Index{"loaded": loaded, "zero-copy": mapped} {
				have, _ := form.QueryGramsScratch(form.Grams(query), eta, &sc)
				// The scratch results alias sc; clone before the next query.
				if !reflect.DeepEqual(append([]Candidate(nil), have...), want) {
					t.Fatalf("trial %d eta=%.1f query=%q [%s form]:\n got %v\nwant %v",
						trial, eta, query, name, have, want)
				}
			}
		}
	}
}

// referenceStats derives the Stats a query must report from full scans: the
// non-empty lists, the documents the pigeonhole prefix (the |lists|−t+1
// shortest lists, ordered by the filter's own byCount so ties fall the same
// way) touches, and how many of them reach the threshold. Every touched
// document that falls short is abandoned at some list, so Pruned is the
// difference.
func referenceStats(ix *Index, grams []string, eta float64) Stats {
	var lists []*postings
	for _, g := range grams {
		if p := ix.postings[g]; p != nil && p.count > 0 {
			lists = append(lists, p)
		}
	}
	st := Stats{Lists: len(lists)}
	t := 1
	for float64(t) < eta*float64(len(grams)) {
		t++
	}
	if len(lists) < t {
		return st
	}
	slices.SortFunc(lists, byCount)
	touched := make(map[uint32]int)
	for i, p := range lists {
		for _, d := range p.appendAll(nil, ix.blockSize) {
			if _, ok := touched[d]; ok || i <= len(lists)-t {
				touched[d]++
			}
		}
	}
	st.Candidates = len(touched)
	for _, c := range touched {
		if c >= t {
			st.Kept++
		}
	}
	st.Pruned = st.Candidates - st.Kept
	return st
}

// checkQuery runs one query through sc and holds it to the reference scan:
// same candidates, containments and order, the reference Stats, and every
// counter and mask word back at zero.
func checkQuery(t *testing.T, ix, ref *Index, query string, eta float64, sc *Scratch) {
	t.Helper()
	grams := ix.Grams(query)
	got, st := ix.QueryGramsScratch(grams, eta, sc)
	if want := referenceQuery(ref, query, eta); !reflect.DeepEqual(append([]Candidate(nil), got...), want) {
		t.Fatalf("eta=%.2f query=%q:\n got %v\nwant %v", eta, query, got, want)
	}
	if want := referenceStats(ref, grams, eta); st != want {
		t.Fatalf("eta=%.2f query=%q: stats %+v, want %+v", eta, query, st, want)
	}
	for d, c := range sc.counts {
		if c != 0 {
			t.Fatalf("eta=%.2f query=%q: counter of doc %d left at %d", eta, query, d, c)
		}
	}
	for w, m := range sc.mask {
		if m != 0 {
			t.Fatalf("eta=%.2f query=%q: mask word %d left at %#x", eta, query, w, m)
		}
	}
}

// sealedCopy reopens ix zero-copy over its own encoding (the mmap'd form).
func sealedCopy(t testing.TB, ix *Index) *Index {
	t.Helper()
	var enc bytes.Buffer
	if err := ix.Save(&enc); err != nil {
		t.Fatalf("save: %v", err)
	}
	sealed, err := FromBytes(enc.Bytes())
	if err != nil {
		t.Fatalf("from bytes: %v", err)
	}
	return sealed
}

// splicedCopy rebuilds ix from its own posting lists (the form compaction
// and supersede produce), at the default block size.
func splicedCopy(ix *Index) *Index {
	ids := make([]string, ix.docCount)
	for d := range ids {
		ids[d] = ix.docID(uint32(d))
	}
	return Splice(ids, []*Index{ix}, nil)
}

// TestScratchStreamsAcrossIndexes pins the invariant the dense counters add:
// a Scratch is all zero between queries, whatever index it served last. One
// Scratch goes through a large, a small and again a large index, heap-built
// and sealed, at block sizes 1, 7 and 128, and every query must give the
// reference scan's answer and Stats and hand every counter back at zero. The
// large indexes are big enough, and the thresholds spread enough, that lists
// are both scanned and sought (seekFactor).
func TestScratchStreamsAcrossIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	randStr := func(n int, alphabet string) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	var sc Scratch
	for _, bs := range []int{1, 7, 128} {
		for _, docs := range []int{1500, 6, 2500} {
			// A few letters make long lists, many make short ones; mixing
			// both in one index gives the filter lists of every length.
			ix := NewWithBlock(3, bs)
			for d := 0; d < docs; d++ {
				ix.Add(fmt.Sprintf("doc-%d", d), randStr(5+rng.Intn(40), "abcd")+randStr(rng.Intn(30), "abcdefghijklmnopqrstuvwxyz"))
			}
			sealed := sealedCopy(t, ix)
			for q := 0; q < 12; q++ {
				query := randStr(3+rng.Intn(40), "abcd") + randStr(rng.Intn(20), "abcdefghijklmnopqrstuvwxyz")
				if q%4 == 0 {
					query = ix.docs[rng.Intn(docs)].id // "doc-N": next to nothing shared
				}
				eta := float64(rng.Intn(21)) / 20
				checkQuery(t, ix, ix, query, eta, &sc)
				checkQuery(t, sealed, ix, query, eta, &sc)
			}
		}
	}
}

// TestQueryCountsPastSixteenBits covers the counter width: a fingerprint
// posted to /v1/match may hold any byte, so a query can bring far more
// distinct grams than a 16-bit counter holds, and a document sharing them all
// must still count exactly (a counter that wrapped would rank it last, or
// drop it).
func TestQueryCountsPastSixteenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	raw := make([]byte, 80_000)
	rng.Read(raw)
	query := string(raw)
	ix := New(3)
	// Prefixes sharing one gram more or less than 2⁸ and 2¹⁶, and the whole.
	for _, n := range []int{257, 258, 259, 65_537, 65_538, 65_539, 70_000, len(query)} {
		ix.Add(fmt.Sprintf("prefix-%d", n), query[:n])
	}
	ix.Add("other", string(raw[:40_000])+"x")
	if n := len(ix.Grams(query)); n <= math.MaxUint16 {
		t.Fatalf("query has %d distinct grams, want more than %d", n, math.MaxUint16)
	}
	var sc Scratch
	for _, eta := range []float64{0.003, 0.5, 1} {
		checkQuery(t, ix, ix, query, eta, &sc)
	}
	got, _ := queryString(ix, query, 0.85)
	if len(got) != 2 || got[0].ID != fmt.Sprintf("prefix-%d", len(query)) || got[0].Containment != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestQueryStatsPrunes(t *testing.T) {
	ix := New(3)
	// One near-duplicate plus far documents that each share exactly one gram
	// with the query: their single-entry posting lists sort into the
	// pigeonhole prefix, so they become candidates with count 1 and must be
	// abandoned once the unread lists can no longer lift them to threshold.
	const query = "abcdefghijklmnopqrst"
	ix.Add("near", query)
	for i := 0; i+3 <= len(query); i++ {
		ix.Add(fmt.Sprintf("far-%d", i), query[i:i+3]+fmt.Sprintf("%015d", i))
	}
	got, st := queryString(ix, "abcdefghijklmnopqrst", 0.8)
	if len(got) != 1 || got[0].ID != "near" {
		t.Fatalf("got %v", got)
	}
	if st.Pruned == 0 {
		t.Errorf("expected early abandonment of far docs, stats %+v", st)
	}
}

func TestIndexLenAndN(t *testing.T) {
	ix := New(0) // clamps to 1
	if ix.N() != 1 {
		t.Errorf("n: %d", ix.N())
	}
	ix.Add("x", "abc")
	if ix.Len() != 1 {
		t.Errorf("len: %d", ix.Len())
	}
}

// TestAddIndexesDistinctGrams: Add walks the windows of a document unsorted
// and skips repeats by each list's last doc; the result must be exactly the
// distinct-gram set Grams derives by sorting — every gram of the document
// posted once, no other gram, and the gram count recorded — including after
// Load, where lists come back with no last doc of their own.
func TestAddIndexesDistinctGrams(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		n := 1 + trial%4
		ix := NewWithBlock(n, 1+trial%3)
		var strs []string
		check := func(ix *Index) {
			t.Helper()
			want := map[string][]uint32{}
			for d, s := range strs {
				grams := Grams(s, n)
				if got := ix.docs[d].ngrams; got != len(grams) {
					t.Fatalf("trial %d doc %d (%q): %d grams recorded, want %d", trial, d, s, got, len(grams))
				}
				for _, g := range grams {
					want[g] = append(want[g], uint32(d))
				}
			}
			got := map[string][]uint32{}
			for g, p := range ix.postings {
				got[g] = p.appendAll(nil, ix.blockSize)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: postings %v, want %v", trial, got, want)
			}
		}
		for d := 0; d < 12; d++ {
			b := make([]byte, rng.Intn(3*n+4))
			for i := range b {
				b[i] = "ab\x00\xff"[rng.Intn(4)] // few symbols: many repeats
			}
			strs = append(strs, string(b))
			ix.Add(fmt.Sprint(d), string(b))
			if d == 5 {
				check(ix)
				var enc bytes.Buffer
				if err := ix.Save(&enc); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(enc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				ix = loaded
			}
		}
		check(ix)
	}
}
