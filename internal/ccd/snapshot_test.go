package ccd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomFingerprint builds a plausible fingerprint: base64-alphabet runs
// separated by function/contract separators.
func randomFingerprint(rng *rand.Rand) Fingerprint {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var sb strings.Builder
	funcs := 1 + rng.Intn(5)
	for f := 0; f < funcs; f++ {
		if f > 0 {
			if rng.Intn(4) == 0 {
				sb.WriteByte(ContractSep)
			} else {
				sb.WriteByte(FuncSep)
			}
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
	}
	return Fingerprint(sb.String())
}

func randomCorpus(rng *rand.Rand, cfg Config, n int) *Corpus {
	c := NewCorpus(cfg)
	for i := 0; i < n; i++ {
		id := "doc-" + strings.Repeat("x", rng.Intn(3)) + string(rune('a'+rng.Intn(26))) + "-" + string(rune('0'+i%10))
		c.Add(id, randomFingerprint(rng))
	}
	return c
}

func saveLoad(t *testing.T, c *Corpus) *Corpus {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(buf.Bytes())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return got
}

// TestSnapshotRoundTripProperty: for random corpora and random query
// fingerprints, a loaded snapshot must produce byte-identical Match results.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []Config{DefaultConfig, ConservativeConfig, {N: 5, Eta: 0.3, Epsilon: 50}}
	for trial := 0; trial < 20; trial++ {
		cfg := configs[trial%len(configs)]
		orig := randomCorpus(rng, cfg, 1+rng.Intn(60))
		got := saveLoad(t, orig)
		if got.Config() != orig.Config() {
			t.Fatalf("trial %d: config %v != %v", trial, got.Config(), orig.Config())
		}
		if got.Len() != orig.Len() {
			t.Fatalf("trial %d: len %d != %d", trial, got.Len(), orig.Len())
		}
		for q := 0; q < 10; q++ {
			fp := randomFingerprint(rng)
			want := orig.Match(fp)
			have := got.Match(fp)
			if len(want) != len(have) {
				t.Fatalf("trial %d query %d: %d matches != %d", trial, q, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("trial %d query %d match %d: %+v != %+v", trial, q, i, have[i], want[i])
				}
			}
		}
		// Entries round-trip in order (doc numbering depends on it).
		we, he := orig.Entries(), got.Entries()
		for i := range we {
			if we[i] != he[i] {
				t.Fatalf("trial %d entry %d: %+v != %+v", trial, i, he[i], we[i])
			}
		}
	}
}

func TestSnapshotEmptyCorpus(t *testing.T) {
	got := saveLoad(t, NewCorpus(Config{}))
	if got.Len() != 0 {
		t.Fatalf("len %d, want 0", got.Len())
	}
	if got.Config() != DefaultConfig {
		t.Fatalf("config %v, want default", got.Config())
	}
	if ms := got.Match(Fingerprint("abcdefgh")); len(ms) != 0 {
		t.Fatalf("empty corpus matched: %v", ms)
	}
}

// TestSnapshotEmbeddedIndex forces the embedded-index path: ids so long that
// the encoded index is smaller than the fingerprint payload would suggest is
// impossible to hit naturally, so instead exercise the path via corpora whose
// fingerprints are huge and repetitive (few distinct grams, tiny index).
func TestSnapshotEmbeddedIndex(t *testing.T) {
	c := NewCorpus(DefaultConfig)
	// One distinct gram ("aaa") across giant fingerprints: the index encodes
	// in a handful of bytes while fpBytes is large, so Save embeds it.
	for i := 0; i < 4; i++ {
		c.Add(string(rune('a'+i)), Fingerprint(strings.Repeat("a", 4096)))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ms := got.Match(Fingerprint(strings.Repeat("a", 4096)))
	if len(ms) != 4 {
		t.Fatalf("got %d matches, want 4", len(ms))
	}
}

func TestSnapshotTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCorpus(rng, DefaultConfig, 20)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 4, len(full) / 2, len(full) - 5, len(full) - 1} {
		if _, err := Load(full[:cut]); err == nil {
			t.Errorf("truncation at %d of %d: no error", cut, len(full))
		}
	}
}

func TestSnapshotCorrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := randomCorpus(rng, DefaultConfig, 20)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one byte in the entry payload region: the CRC must catch it (or a
	// structural check must fail first); a silent wrong corpus is the bug.
	for _, pos := range []int{len(snapshotMagic) + 20, len(full) / 2, len(full) - 6} {
		mut := bytes.Clone(full)
		mut[pos] ^= 0x40
		if got, err := Load(mut); err == nil {
			// Flipping a fingerprint byte changes payload but CRC covers it.
			t.Errorf("corruption at %d: loaded %d entries without error", pos, got.Len())
		}
	}
	// Bad magic is reported as such.
	mut := bytes.Clone(full)
	mut[0] = 'X'
	if _, err := Load(mut); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err=%v", err)
	}
	// Future versions are rejected, not misparsed.
	mut = bytes.Clone(full)
	mut[len(snapshotMagic)] = 99
	if _, err := Load(mut); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err=%v", err)
	}
}

// segmentBytes saves c and returns the raw v2 snapshot bytes.
func segmentBytes(t *testing.T, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// fixCRC recomputes the CRC-32 trailer after a deliberate header mutation, so
// tests reach the structural validators behind the checksum gate.
func fixCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// TestSegmentOpenMatchesLoad: the zero-copy segment open must be observably
// identical to the corpus it was saved from — same entries, same config, same
// match results — and the segment must be sealed (write-once).
func TestSegmentOpenMatchesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		orig := randomCorpus(rng, DefaultConfig, 1+rng.Intn(40))
		data := segmentBytes(t, orig)
		seg, err := OpenSegmentBytes(data, nil)
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		if !seg.Mapped() {
			t.Fatalf("trial %d: segment not marked mapped", trial)
		}
		if seg.Len() != orig.Len() || seg.Config() != orig.Config() {
			t.Fatalf("trial %d: len/config drifted", trial)
		}
		we, he := orig.Entries(), seg.Entries()
		for i := range we {
			if we[i] != he[i] {
				t.Fatalf("trial %d entry %d: %+v != %+v", trial, i, he[i], we[i])
			}
		}
		for q := 0; q < 6; q++ {
			fp := randomFingerprint(rng)
			want := orig.MatchTopK(fp, 5)
			have := seg.MatchTopK(fp, 5)
			if !matchesEqual(want, have) {
				t.Fatalf("trial %d query %d: %v != %v", trial, q, have, want)
			}
		}
	}
}

func TestSegmentOpenSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	seg, err := OpenSegmentBytes(segmentBytes(t, randomCorpus(rng, DefaultConfig, 5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a sealed segment did not panic")
		}
	}()
	seg.Add("late", Fingerprint("abcdefgh"))
}

// TestSegmentOpenTruncated: every prefix of a valid segment file must be
// rejected with a clean error — truncation models a crash mid-write or a
// short mmap.
func TestSegmentOpenTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	full := segmentBytes(t, randomCorpus(rng, DefaultConfig, 20))
	for cut := 0; cut < len(full); cut++ {
		if _, err := OpenSegmentBytes(full[:cut:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d: no error", cut, len(full))
		}
	}
}

// TestSegmentOpenBitFlips: a single flipped bit anywhere in the file —
// header, entry payload, posting block, skip table, or the CRC trailer
// itself — must fail the open. The whole-body checksum makes this exhaustive
// sweep tractable: no flip can sneak past it.
func TestSegmentOpenBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	full := segmentBytes(t, randomCorpus(rng, DefaultConfig, 20))
	for pos := 0; pos < len(full); pos++ {
		mut := bytes.Clone(full)
		mut[pos] ^= 0x40
		if got, err := OpenSegmentBytes(mut, nil); err == nil {
			t.Fatalf("bit flip at %d of %d: opened %d entries without error", pos, len(full), got.Len())
		}
	}
}

// TestSegmentOpenOverdeclaredCounts: headers that promise more than the file
// holds (entry count, index section length) must produce clean errors, never
// a panic or an out-of-bounds read — even with a valid CRC over the mutated
// bytes.
func TestSegmentOpenOverdeclaredCounts(t *testing.T) {
	c := NewCorpus(DefaultConfig)
	for i := 0; i < 5; i++ {
		c.Add(string(rune('a'+i)), Fingerprint(strings.Repeat("qwertyasdf", 4)))
	}
	full := segmentBytes(t, c)

	// Locate the entry-count varint: magic, version, N, Eta, Epsilon.
	off := len(snapshotMagic)
	for _, skip := range []int{1, 1, 8, 8} { // version, N varints are 1 byte here
		off += skip
	}
	if full[off] != 5 {
		t.Fatalf("fixture drifted: entry count byte at %d is %d, want 5", off, full[off])
	}
	over := bytes.Clone(full)
	over[off] = 120 // declare 120 entries, file holds 5
	fixCRC(over)
	if _, err := OpenSegmentBytes(over, nil); err == nil {
		t.Fatal("over-declared entry count: no error")
	}

	// Over-declare the index section length: walk to it, then bump it past
	// the bytes that remain.
	walk := full[off:]
	count, w := binary.Uvarint(walk)
	walk = walk[w:]
	for i := uint64(0); i < 2*count; i++ { // id and fp per entry
		n, w := binary.Uvarint(walk)
		walk = walk[w+int(n):]
	}
	walk = walk[1:] // index flag
	idxOff := len(full) - len(walk)
	size, w := binary.Uvarint(walk)
	if int(size)+w+4 != len(walk) {
		t.Fatalf("fixture drifted: index length %d does not fill the file", size)
	}
	over = bytes.Clone(full[:idxOff])
	over = binary.AppendUvarint(over, size+1000)
	over = append(over, walk[w:]...)
	fixCRC(over)
	if _, err := OpenSegmentBytes(over, nil); err == nil {
		t.Fatal("over-declared index length: no error")
	}
}

// TestSegmentOpenLegacyFallback: a hand-built, CRC-valid version-1 snapshot
// (flag 0 — rebuild on load) once opened through a heap fallback; there is
// one format generation now, and both readers refuse it by version.
func TestSegmentOpenLegacyFallback(t *testing.T) {
	var body []byte
	body = append(body, snapshotMagic...)
	body = binary.AppendUvarint(body, 1) // legacy version
	body = binary.AppendUvarint(body, 3) // N
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(0.5))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(70))
	body = binary.AppendUvarint(body, 1) // one entry
	body = binary.AppendUvarint(body, uint64(len("doc-a")))
	body = append(body, "doc-a"...)
	fp := "QxRtYuIoPAbCdEfGh"
	body = binary.AppendUvarint(body, uint64(len(fp)))
	body = append(body, fp...)
	body = append(body, 0) // flag 0: rebuild index on load
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	if _, err := OpenSegmentBytes(body, nil); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("OpenSegmentBytes on a version-1 snapshot: %v, want an unsupported-version error", err)
	}
	if _, err := Load(body); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("Load on a version-1 snapshot: %v, want an unsupported-version error", err)
	}
}
