package remote

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/ccd"
)

// FuzzShardWire throws arbitrary bytes at both shard match decoders. Neither
// may panic; a request or response that decodes must re-encode to exactly
// the bytes it came from, so every message has one byte form. Each input
// also seeds a response, which must decode back to itself with every score
// bit-equal.
func FuzzShardWire(f *testing.F) {
	for _, q := range []ShardMatchRequest{
		{Fingerprint: "QxRtYuIoP", K: 10, Bound: 71.5},
		{Fingerprint: "a", K: 0, Bound: 0},
		{Fingerprint: "ZvNmWqSj:KlQx", K: math.MaxInt, Bound: -3},
	} {
		b, err := q.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range []ShardMatchResponse{
		{},
		{Degraded: true},
		{
			Matches: []ccd.Match{{ID: "c-1", Score: 98.25}, {ID: "", Score: math.SmallestNonzeroFloat64}, {ID: "c-0", Score: math.Copysign(0, -1)}},
			Stats:   ccd.MatchStats{Candidates: 40, FilterPruned: 7, Scored: 12, CutoffSkipped: 21, Abandoned: math.MaxInt},
		},
	} {
		b, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"fingerprint": "QxRtYuIoP", "k": 3}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		var q ShardMatchRequest
		if q.UnmarshalBinary(b) == nil {
			re, err := q.MarshalBinary()
			if err != nil || !bytes.Equal(re, b) {
				t.Fatalf("request %+v re-encodes to %x (err %v), decoded from %x", q, re, err, b)
			}
		}
		var r ShardMatchResponse
		if r.UnmarshalBinary(b) == nil {
			re, err := r.MarshalBinary()
			if err != nil || !bytes.Equal(re, b) {
				t.Fatalf("response %+v re-encodes to %x (err %v), decoded from %x", r, re, err, b)
			}
		}

		want := responseFrom(b)
		enc, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got ShardMatchResponse
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("response %+v does not decode: %v", want, err)
		}
		if got.Degraded != want.Degraded || got.Stats != want.Stats || len(got.Matches) != len(want.Matches) {
			t.Fatalf("response %+v decoded as %+v", want, got)
		}
		for i, m := range want.Matches {
			if got.Matches[i].ID != m.ID || math.Float64bits(got.Matches[i].Score) != math.Float64bits(m.Score) {
				t.Fatalf("match %d: %+v decoded as %+v", i, m, got.Matches[i])
			}
		}
	})
}

// responseFrom builds a response from b: its flag and funnel from a
// generator seeded by b's hash, one match per 8 bytes of b, whose bits are
// the score (non-finite ones skipped) and whose id is a slice of b.
func responseFrom(b []byte) ShardMatchResponse {
	h := fnv.New64a()
	_, _ = h.Write(b)
	rng := rand.New(rand.NewPCG(h.Sum64(), 0))
	r := ShardMatchResponse{Degraded: rng.IntN(2) == 1}
	for _, p := range funnel(&r.Stats) {
		*p = rng.Int()
	}
	for i := 0; i+8 <= len(b); i += 8 {
		score := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		if math.IsNaN(score) || math.IsInf(score, 0) {
			continue
		}
		r.Matches = append(r.Matches, ccd.Match{ID: string(b[i : i+rng.IntN(9)]), Score: score})
	}
	return r
}

// TestShardWireRoundTrip pins the layout byte for byte, so a change to it is
// a deliberate one, and checks what the router decodes from a shard's
// answer.
func TestShardWireRoundTrip(t *testing.T) {
	q := ShardMatchRequest{Fingerprint: "fp", K: 300, Bound: 0.5}
	b, err := q.MarshalBinary()
	want := []byte{1, 0xac, 0x02, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 2, 'f', 'p'}
	if err != nil || !bytes.Equal(b, want) {
		t.Fatalf("request %x (err %v), want %x", b, err, want)
	}
	if _, err := (ShardMatchRequest{Fingerprint: "fp", K: -1}).MarshalBinary(); err == nil {
		t.Error("a negative k was encoded")
	}

	r := ShardMatchResponse{
		Matches:  []ccd.Match{{ID: "a", Score: 1}},
		Stats:    ccd.MatchStats{Candidates: 5, FilterPruned: 4, Scored: 3, CutoffSkipped: 2, Abandoned: 1, FilterNs: 9, ScoreNs: 9},
		Degraded: true,
	}
	b, err = r.MarshalBinary()
	want = []byte{1, 1, 5, 4, 3, 2, 1, 1, 1, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	if err != nil || !bytes.Equal(b, want) {
		t.Fatalf("response %x (err %v), want %x", b, err, want)
	}
	var got ShardMatchResponse
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	r.Stats.FilterNs, r.Stats.ScoreNs = 0, 0 // timings stay on the shard
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("decoded %+v, want %+v", got, r)
	}
}

// TestShardResponseRefusals: the router refuses a shard answer that breaks
// the layout or carries a value no merge can use.
func TestShardResponseRefusals(t *testing.T) {
	ok, err := ShardMatchResponse{Matches: []ccd.Match{{ID: "a", Score: 1}}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nan := append([]byte{1, 0, 0, 0, 0, 0, 0, 1, 1, 'a'}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...)
	for name, b := range map[string][]byte{
		"empty body":        {},
		"old JSON answer":   []byte(`{"matches": [], "stats": {}}`),
		"version 2":         append([]byte{2}, ok[1:]...),
		"trailing byte":     append(append([]byte(nil), ok...), 0),
		"truncated score":   ok[:len(ok)-1],
		"degraded flag 2":   append([]byte{1, 2}, ok[2:]...),
		"over-long uvarint": {1, 0, 0x80, 0, 0, 0, 0, 0, 0},
		"count overflows":   {1, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"funnel overflows":  {1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0},
		"NaN score":         nan,
		"matches past body": {1, 0, 0, 0, 0, 0, 0, 2, 1, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
	} {
		var r ShardMatchResponse
		if err := r.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded %+v", name, r)
		}
	}
}
