package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ccd"
)

// FuzzSnapshotLoad: ReadSnapshot on arbitrary bytes must return an error or
// a valid corpus — never panic, never allocate absurdly, never hand back a
// corpus that cannot round-trip through WriteSnapshot. Seeded with valid
// version-2 envelopes (matching and mismatching shard counts), a pre-shard
// version-1 header (refused by version now; it stays as a must-error input),
// a truncated shard directory, and a shard-count header that over-declares
// its payload.
func FuzzSnapshotLoad(f *testing.F) {
	encode := func(shards, docs int) []byte {
		c := NewCorpus(ccd.DefaultConfig, shards)
		for i := 0; i < docs; i++ {
			if err := c.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := encode(2, 0)
	small := encode(2, 9)
	wide := encode(5, 17)
	f.Add(empty)
	f.Add(small)
	f.Add(wide)
	f.Add(small[:len(small)/2])            // truncated shard directory
	f.Add(append([]byte{}, small[:14]...)) // cut inside the config block
	// Over-declared shard count: keep the v2 preamble, bump the count byte.
	f.Add(bytes.Replace(small, []byte{2, 0}, []byte{63, 0}, 1))
	// Pre-shard version-1 header with garbage body.
	f.Add([]byte("SVCSNAP\x00\x01\x03garbage"))
	f.Add([]byte("SVCSNAP\x00\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c := NewCorpus(ccd.DefaultConfig, 2)
		if err := c.ReadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		// Whatever ReadSnapshot accepted must survive a write/read round trip
		// with an identical entry multiset and configuration.
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatalf("accepted corpus fails to snapshot: %v", err)
		}
		got := NewCorpus(ccd.DefaultConfig, 2)
		if err := got.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round trip fails to load: %v", err)
		}
		if got.Len() != c.Len() || got.Config() != c.Config() {
			t.Fatalf("round trip drifted: %d/%v vs %d/%v", got.Len(), got.Config(), c.Len(), c.Config())
		}
		if !reflect.DeepEqual(got.entryMultiset(), c.entryMultiset()) {
			t.Fatal("round trip changed the entry multiset")
		}
	})
}

// FuzzWALReplay: byte-level corruption or truncation of a write-ahead log
// must never panic or fabricate records — replay yields an exact prefix of
// the entries that were appended, and cutting the file at the reported good
// offset leaves a log that replays identically with no torn tail. The fuzzer
// drives both the log contents (entries derived from data) and the damage
// (truncate at cut, XOR one byte at xorPos).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("id1\xffQxRtYuIoP.AbCdEf\xffid2\xffZzZzZzZz"), uint16(0), uint16(0), byte(0))
	f.Add([]byte("a\xffbbbb"), uint16(3), uint16(2), byte(0x40))
	f.Add([]byte{}, uint16(9), uint16(1), byte(0xff))
	f.Add([]byte("doc\xfffingerprint\xffdoc\xfffingerprint"), uint16(65535), uint16(20), byte(1))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16, xorPos uint16, xorVal byte) {
		// Derive entries from data (fields split on 0xFF, paired id/fp) and
		// build the valid log image.
		fields := bytes.Split(data, []byte{0xff})
		var entries []ccd.Entry
		var log []byte
		for i := 0; i+1 < len(fields); i += 2 {
			e := ccd.Entry{ID: string(fields[i]), FP: ccd.Fingerprint(fields[i+1])}
			entries = append(entries, e)
			log = appendWALRecord(log, e.ID, e.FP)
		}

		// Damage it: truncate, then flip bits in one surviving byte.
		if int(cut) < len(log) {
			log = log[:cut]
		}
		if len(log) > 0 {
			log[int(xorPos)%len(log)] ^= xorVal
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "corrupt.wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}

		var replayed []ccd.Entry
		records, goodOffset, _, err := replayWAL(path, func(id string, fp ccd.Fingerprint) {
			replayed = append(replayed, ccd.Entry{ID: id, FP: fp})
		})
		if err != nil {
			t.Fatalf("replay of existing file errored: %v", err)
		}
		if records != len(replayed) {
			t.Fatalf("reported %d records, callback saw %d", records, len(replayed))
		}
		if goodOffset < 0 || goodOffset > int64(len(log)) {
			t.Fatalf("good offset %d outside file of %d bytes", goodOffset, len(log))
		}
		// Exact prefix: nothing reordered, duplicated or invented. (A
		// corrupted record can only be accepted if the XOR was a no-op or
		// re-created a valid image of the same prefix; equality still holds
		// record-for-record below goodOffset in every case the CRC admits.)
		if len(replayed) > len(entries) {
			t.Fatalf("replayed %d records from a log of %d", len(replayed), len(entries))
		}
		for i, e := range replayed {
			if xorVal == 0 || int(xorPos)%max(len(log), 1) >= int(goodOffset) {
				// Damage (if any) lies beyond the accepted prefix: the
				// replayed records must match the originals exactly.
				if e != entries[i] {
					t.Fatalf("record %d: got %+v, want %+v", i, e, entries[i])
				}
			}
		}

		// Cutting at goodOffset (what OpenStore does) must leave a clean log
		// that replays the same records with no torn tail.
		if err := os.Truncate(path, goodOffset); err != nil {
			t.Fatal(err)
		}
		var second []ccd.Entry
		records2, offset2, torn2, err := replayWAL(path, func(id string, fp ccd.Fingerprint) {
			second = append(second, ccd.Entry{ID: id, FP: fp})
		})
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if torn2 {
			t.Fatal("log cut at good offset still reports a torn tail")
		}
		if records2 != records || offset2 != goodOffset {
			t.Fatalf("second replay: %d records to offset %d, want %d to %d", records2, offset2, records, goodOffset)
		}
		for i := range second {
			if second[i] != replayed[i] {
				t.Fatalf("second replay record %d differs: %+v vs %+v", i, second[i], replayed[i])
			}
		}
	})
}
