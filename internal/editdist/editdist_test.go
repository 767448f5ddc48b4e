package editdist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "acb", 2},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.d {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 50 {
			a = a[:50]
		}
		if len(b) > 50 {
			b = b[:50]
		}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		for _, s := range []*string{&a, &b, &c} {
			if len(*s) > 30 {
				*s = (*s)[:30]
			}
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBoundedAgreesWhenWithin(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		var s Scratch
		d := Distance(a, b)
		return s.DistanceBounded(a, b, d) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBoundedEarlyExit(t *testing.T) {
	var s Scratch
	a := "aaaaaaaaaaaaaaaaaaaa"
	b := "bbbbbbbbbbbbbbbbbbbb"
	if got := s.DistanceBounded(a, b, 3); got != 4 {
		t.Errorf("got %d, want maxDist+1 = 4", got)
	}
	if got := s.DistanceBounded("abc", "abcdefgh", 2); got != 3 {
		t.Errorf("length gap: got %d want 3", got)
	}
}

// similarity is δ over the reference Distance: the oracle similarityAtLeast
// is held to.
func similarity(a, b string) float64 {
	ml := max(len(a), len(b))
	if ml == 0 {
		return 100
	}
	return float64(ml-Distance(a, b)) / float64(ml) * 100
}

// similarityAtLeast scores one pair the way Algorithm 1 (package ccd) scores
// each sub pair: MaxDist bounds the distance, a Scratch measures it, and
// Delta scores it. It reports whether δ(a,b) ≥ threshold; the score is
// exact when ok, and at threshold 0 it is δ itself. Two empty strings are
// identical (100).
func similarityAtLeast(a, b string, threshold float64) (float64, bool) {
	ml := max(len(a), len(b))
	if ml == 0 {
		return 100, threshold <= 100
	}
	var s Scratch
	maxDist := MaxDist(ml, threshold)
	d := s.DistanceBounded(a, b, maxDist)
	return Delta(ml, d), d <= maxDist
}

// delta is the score similarityAtLeast gives at threshold 0, where it must
// be δ itself.
func delta(t *testing.T, a, b string) float64 {
	t.Helper()
	s, ok := similarityAtLeast(a, b, 0)
	if !ok {
		t.Fatalf("similarityAtLeast(%q, %q, 0) failed", a, b)
	}
	return s
}

func TestSimilarity(t *testing.T) {
	if s := delta(t, "abcd", "abcd"); s != 100 {
		t.Errorf("identical: %v", s)
	}
	if s := delta(t, "", ""); s != 100 {
		t.Errorf("empty: %v", s)
	}
	if s := delta(t, "aaaa", "bbbb"); s != 0 {
		t.Errorf("disjoint: %v", s)
	}
	// One edit out of 4 chars: 75.
	if s := delta(t, "abcd", "abcx"); s != 75 {
		t.Errorf("3/4: %v", s)
	}
}

// TestSimilarityRange: at threshold 0 the score is in [0,100] and equals the
// reference δ bit for bit.
func TestSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		s := delta(t, a, b)
		return s >= 0 && s <= 100 && s == similarity(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityAtLeast(t *testing.T) {
	s, ok := similarityAtLeast("abcd", "abcx", 70)
	if !ok || s != 75 {
		t.Errorf("got %v %v", s, ok)
	}
	_, ok = similarityAtLeast("abcd", "wxyz", 70)
	if ok {
		t.Error("should fail threshold")
	}
}

func TestSimilarityAtLeastConsistent(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		exact := similarity(a, b)
		for _, th := range []float64{0, 50, 70, 90, 100} {
			_, ok := similarityAtLeast(a, b, th)
			if ok != (exact >= th) && !(exact == th) {
				// Allow boundary rounding at exact threshold.
				if ok != (exact >= th) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bounded is the contract of DistanceBounded stated over the reference.
func bounded(d, maxDist int) int {
	switch {
	case maxDist < 0:
		return 0
	case d <= maxDist:
		return d
	}
	return maxDist + 1
}

// randomString draws n bytes: from two letters (long runs of matches), from
// sixteen (what a fingerprint looks like), or from all 256 byte values.
func randomString(rng *rand.Rand, n int) string {
	alphabet := []int{2, 16, 256}[rng.Intn(3)]
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(alphabet))
		if alphabet == 16 && rng.Intn(8) == 0 {
			b[i] |= 0x80
		}
	}
	return string(b)
}

// mutate applies k random single-byte edits to s.
func mutate(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for ; k > 0; k-- {
		switch op := rng.Intn(3); {
		case op == 0 || len(b) == 0:
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{byte(rng.Intn(256))}, b[i:]...)...)
		case op == 1:
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default:
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
	}
	return string(b)
}

// TestDistanceBoundedMatchesReference holds DistanceBounded to Distance on
// the shapes that pick its kernel: lengths on both sides of the 64-byte
// word, near pairs and unrelated ones, every bound from −1 to past the
// distance, both argument orders. All queries go through one Scratch, first
// in the order a corpus match makes them (one string against a run of
// others, so the remembered masks are reused) and then shuffled (so every
// query follows an unrelated pattern and stale masks would show).
func TestDistanceBoundedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pairs := 1500
	if testing.Short() {
		pairs = 300
	}
	length := func() int {
		switch rng.Intn(4) {
		case 0:
			return 62 + rng.Intn(5) // 62..66
		case 1:
			return rng.Intn(201)
		default:
			return rng.Intn(70)
		}
	}
	type query struct {
		a, b          string
		maxDist, want int
	}
	var queries []query
	for i := 0; i < pairs; i++ {
		a := randomString(rng, length())
		var b string
		if i%2 == 0 {
			b = mutate(rng, a, rng.Intn(len(a)/3+3))
		} else {
			b = randomString(rng, length())
		}
		d := Distance(a, b)
		for maxDist := -1; maxDist <= d+2; maxDist++ {
			queries = append(queries,
				query{a, b, maxDist, bounded(d, maxDist)},
				query{b, a, maxDist, bounded(d, maxDist)})
		}
	}
	var s Scratch
	run := func(order string) {
		for _, q := range queries {
			if got := s.DistanceBounded(q.a, q.b, q.maxDist); got != q.want {
				t.Fatalf("%s: DistanceBounded(%q, %q, %d) = %d, want %d", order, q.a, q.b, q.maxDist, got, q.want)
			}
		}
	}
	run("in order")
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	run("shuffled")
	t.Logf("%d pairs, %d queries per pass", pairs, len(queries))
}

// fuzzMaxLen caps fuzz inputs: the reference is quadratic.
const fuzzMaxLen = 300

// FuzzDistanceBounded: for any bytes and any bound, DistanceBounded does not
// panic, agrees with the reference DP, and does not care which argument
// comes first. One Scratch serves all three calls of an input, so the second
// and third run on masks the first left behind.
func FuzzDistanceBounded(f *testing.F) {
	f.Fuzz(func(t *testing.T, ab, bb []byte, maxDist int) {
		a := string(ab[:min(len(ab), fuzzMaxLen)])
		b := string(bb[:min(len(bb), fuzzMaxLen)])
		want := bounded(Distance(a, b), maxDist)
		var s Scratch
		for _, q := range [][2]string{{a, b}, {b, a}, {a, b}} {
			if got := s.DistanceBounded(q[0], q[1], maxDist); got != want {
				t.Fatalf("DistanceBounded(%q, %q, %d) = %d, want %d", q[0], q[1], maxDist, got, want)
			}
		}
	})
}

var benchSink int

// BenchmarkDistanceBounded times the kernel on the shape a corpus match
// gives it (sub-fingerprint lengths p50 16 and 22, p99 52, the 64-byte word
// edge, and 96 where both sides exceed the word), maxDist 30 % of the longer
// string as ε = 70 sets it, one pattern against a run of texts through one
// Scratch. Near texts are m/10 edits away and are scored to the end; far
// texts are unrelated, within ±30 % of the pattern's length, and leave on
// the bound.
func BenchmarkDistanceBounded(b *testing.B) {
	const texts = 64
	for _, m := range []int{16, 22, 52, 64, 96} {
		for _, kind := range []string{"near", "far"} {
			rng := rand.New(rand.NewSource(int64(m)))
			hex := func(n int) string {
				s := make([]byte, n)
				for i := range s {
					s[i] = "0123456789abcdef"[rng.Intn(16)]
				}
				return string(s)
			}
			pattern := hex(m)
			var ts [texts]string
			for i := range ts {
				if kind == "near" {
					ts[i] = mutate(rng, pattern, m/10)
				} else {
					ts[i] = hex(m - m*3/10 + rng.Intn(2*(m*3/10)+1))
				}
			}
			b.Run(fmt.Sprintf("m=%d/%s", m, kind), func(b *testing.B) {
				var s Scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t := ts[i%texts]
					benchSink += s.DistanceBounded(pattern, t, max(m, len(t))*3/10)
				}
			})
		}
	}
}
