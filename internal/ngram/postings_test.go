package ngram

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildPostings builds a list from ids via the builder path.
func buildPostings(ids []uint32, blockSize int) *postings {
	p := &postings{}
	for _, id := range ids {
		p.add(id, blockSize)
	}
	return p
}

// randIDs returns n strictly increasing doc numbers with varied gap sizes
// (some gaps need multi-byte varints).
func randIDs(rng *rand.Rand, n int) []uint32 {
	ids := make([]uint32, n)
	cur := uint32(0)
	for i := range ids {
		gap := uint32(1)
		switch rng.Intn(4) {
		case 1:
			gap += uint32(rng.Intn(100))
		case 2:
			gap += uint32(rng.Intn(10_000))
		case 3:
			gap += uint32(rng.Intn(1_000_000))
		}
		cur += gap
		ids[i] = cur
	}
	return ids
}

func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bs := range []int{1, 2, 3, 127, 128, 129} {
		for _, n := range []int{0, 1, 2, 127, 128, 129, 500} {
			ids := randIDs(rng, n)
			p := buildPostings(ids, bs)
			if p.count != n {
				t.Fatalf("bs=%d n=%d: count %d", bs, n, p.count)
			}
			got := p.appendAll(nil, bs)
			if n == 0 {
				if len(got) != 0 {
					t.Fatalf("bs=%d: empty list decoded to %v", bs, got)
				}
				continue
			}
			if !reflect.DeepEqual(got, ids) {
				t.Fatalf("bs=%d n=%d: decode mismatch\n got %v\nwant %v", bs, n, got, ids)
			}

			// The sealed encoding must parse back (the docCount bound is one
			// past the largest id) and decode to the same ids.
			skips, data := encodedPostings(p)
			parsed, err := parsePostings(uint64(n), bs, skips, data, int(ids[n-1])+1, nil, 0)
			if err != nil {
				t.Fatalf("bs=%d n=%d: parse: %v", bs, n, err)
			}
			if got := parsed.appendAll(nil, bs); !reflect.DeepEqual(got, ids) {
				t.Fatalf("bs=%d n=%d: parsed decode mismatch", bs, n)
			}

			// unseal must hand back a builder that keeps accepting adds.
			parsed.unseal(bs)
			parsed.add(ids[n-1]+5, bs)
			want := append(append([]uint32(nil), ids...), ids[n-1]+5)
			if got := parsed.appendAll(nil, bs); !reflect.DeepEqual(got, want) {
				t.Fatalf("bs=%d n=%d: add after unseal mismatch\n got %v\nwant %v", bs, n, got, want)
			}
		}
	}
}

func TestCursorSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bs := range []int{1, 4, 128} {
		ids := randIDs(rng, 300)
		p := buildPostings(ids, bs)
		// Reference: linear scan. Seek targets are a sorted mix of present
		// ids, gaps, and beyond-the-end values; seekGE only moves forward, so
		// targets must be tried in ascending order against one cursor.
		targets := make([]uint32, 0, 600)
		for _, id := range ids {
			targets = append(targets, id, id+1)
		}
		targets = append(targets, 0, ids[len(ids)-1]+1000)
		sortU32(targets)

		var c cursor
		c.init(p, make([]uint32, bs), bs)
		for _, want := range targets {
			c.seekGE(want)
			// Reference answer: first id >= want.
			i := 0
			for i < len(ids) && ids[i] < want {
				i++
			}
			if i == len(ids) {
				if c.valid {
					t.Fatalf("bs=%d seekGE(%d): cursor at %d, want exhausted", bs, want, c.cur)
				}
				continue
			}
			if !c.valid || c.cur != ids[i] {
				t.Fatalf("bs=%d seekGE(%d): cursor valid=%v cur=%d, want %d", bs, want, c.valid, c.cur, ids[i])
			}
		}
	}
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestParsePostingsRejectsCorruption(t *testing.T) {
	const bs = 4
	ids := []uint32{3, 5, 9, 12, 20, 21, 30}
	p := buildPostings(ids, bs)
	skips, data := encodedPostings(p)
	docCount := 31

	ok := func(sk, da []byte, count uint64, docs int) error {
		_, err := parsePostings(count, bs, sk, da, docs, nil, 0)
		return err
	}
	if err := ok(skips, data, 7, docCount); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"over-declared count", ok(skips, data, 8, docCount)},
		{"under-declared count", ok(skips, data, 6, docCount)},
		{"count above doc count", ok(skips, data, 7, 6)},
		{"doc out of range", ok(skips, data, 7, 30)},
		{"truncated skips", ok(skips[:len(skips)-1], data, 7, docCount)},
		{"truncated data", ok(skips, data[:len(data)-1], 7, docCount)},
		{"trailing data", ok(skips, append(append([]byte(nil), data...), 1), 7, docCount)},
		{"nonzero first offset", ok(flip(skips, 4), data, 7, docCount)},
		{"nonempty empty list", ok(skips, data, 0, docCount)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// A zero delta (duplicate doc) must be rejected: ids [3,3] encode as
	// first=3 + delta 0.
	sk := []byte{3, 0, 0, 0, 0, 0, 0, 0}
	if _, err := parsePostings(2, bs, sk, []byte{0}, docCount, nil, 0); err == nil {
		t.Error("zero delta accepted")
	}
	// Block order must be strictly increasing across block boundaries.
	p2 := buildPostings([]uint32{1, 2, 3, 4, 5, 6, 7, 8}, bs)
	sk2, da2 := encodedPostings(p2)
	bad := append([]byte(nil), sk2...)
	copy(bad[skipEntryBytes:], []byte{2, 0, 0, 0}) // second block "starts" at 2 <= 4
	if _, err := parsePostings(8, bs, bad, da2, docCount, nil, 0); err == nil {
		t.Error("non-increasing block start accepted")
	}
}

// flip returns a copy of b with byte i incremented (wrapping).
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i]++
	return out
}
