package ccd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/binfmt"
	"repro/internal/ngram"
)

// Binary corpus snapshot:
//
//	magic   "CCDSNAP\x00"
//	uvarint version
//	uvarint N, float64 Eta, float64 Epsilon   (the matcher Config)
//	uvarint entry count
//	per entry: string id, string fingerprint  (uvarint-length-prefixed)
//	byte    index flag: always 1 (an embedded ngram codec follows)
//	uvarint index byte length, index bytes (ngram codec format)
//	uint32  CRC-32 (IEEE, little-endian) of every preceding byte
//
// Version 2 is the segment format and the only one read or written: the
// embedded index is the docless block-compressed ngram codec (NGIX v2) — the
// same bytes the runtime queries. OpenSegmentBytes opens such a snapshot
// zero-copy over a memory-mapped file: posting lists are read in place, so
// restore skips the index rebuild entirely. Any other version is refused
// with an "unsupported version" error.
const (
	snapshotMagic = "CCDSNAP\x00"
	// SnapshotVersion is the corpus snapshot format version.
	SnapshotVersion = 2
)

// maxSnapshotString bounds any single length-prefixed string in a snapshot,
// protecting the parser from allocating garbage lengths out of corrupt input.
const maxSnapshotString = 1 << 26 // 64 MiB

// maxIndexSection bounds the embedded index section: posting data for
// million-document corpora runs well past maxSnapshotString.
const maxIndexSection = 1 << 30 // 1 GiB

// Save writes the corpus in the versioned binary snapshot format.
func (c *Corpus) Save(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := binfmt.NewWriter(io.MultiWriter(w, crc))
	bw.RawString(snapshotMagic)
	bw.Uvarint(SnapshotVersion)
	bw.Uvarint(uint64(c.cfg.N))
	bw.Float64(c.cfg.Eta)
	bw.Float64(c.cfg.Epsilon)
	bw.Uvarint(uint64(len(c.entries)))
	for _, e := range c.entries {
		bw.Str(e.ID)
		bw.Str(string(e.FP))
	}
	// Always embed the docless index: it is the runtime format, so a mapped
	// open must find it in the file (ids live in the entry table above).
	var encoded bytes.Buffer
	if err := c.index.SaveDocless(&encoded); err != nil {
		return err
	}
	bw.Byte(1)
	bw.Blob(encoded.Bytes())
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// Load opens a snapshot written by Save as a mutable corpus on the heap. It
// runs the same parser and checks as OpenSegmentBytes and differs only in
// copying the embedded index's posting section to the heap (ngram.Load), so
// the two accept and refuse exactly the same bytes. Truncated or corrupted
// input yields an error, never a silently partial corpus. data is not
// retained.
func Load(data []byte) (*Corpus, error) {
	return openSegment(data, ngram.Load)
}

// OpenSegmentBytes opens a version-2 snapshot as an immutable segment
// directly over data — typically a memory-mapped segment file. Entry ids and
// fingerprints are copied to the heap (they flow into responses and outlive
// remaps), but the embedded index's posting lists are read zero-copy in
// place, so opening a million-document segment costs a validation pass, not
// a rebuild. ref is retained for the corpus's lifetime to pin data's owner
// (the mapping holder); the caller must not mutate data afterwards. The
// returned corpus is sealed: Add panics.
func OpenSegmentBytes(data []byte, ref any) (*Corpus, error) {
	c, err := openSegment(data, ngram.FromBytes)
	if err != nil {
		return nil, err
	}
	c.mapRef, c.sealed = ref, true
	return c, nil
}

// openSegment is the one CCDSNAP parser behind Load and OpenSegmentBytes;
// openIndex opens the embedded index section (in place or copied).
func openSegment(data []byte, openIndex func([]byte) (*ngram.Index, error)) (*Corpus, error) {
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, fmt.Errorf("ccd: segment: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("ccd: segment: bad magic %q", data[:len(snapshotMagic)])
	}
	body := data[:len(data)-4]
	r := binfmt.NewCursor(body[len(snapshotMagic):], "ccd: segment:")
	version := r.Uvarint("version")
	if r.Err() != nil {
		return nil, r.Err()
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("ccd: segment: unsupported version %d (want %d)", version, SnapshotVersion)
	}
	// The CRC trailer covers the whole body; checking it up front also
	// bounds every length field below by construction — a bit flip anywhere
	// is caught here, not by a parser edge case.
	stored := binary.LittleEndian.Uint32(data[len(body):])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("ccd: segment: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	cfg := Config{N: int(r.Uvarint("config N")), Eta: r.Float64("config Eta"), Epsilon: r.Float64("config Epsilon")}
	count := r.Uvarint("entry count")
	if r.Err() != nil {
		return nil, r.Err()
	}
	entries := make([]Entry, 0, min(count, 1<<20))
	var dict subDict
	for i := uint64(0); i < count; i++ {
		id := r.Str(maxSnapshotString, "entry id")
		fp := r.Str(maxSnapshotString, "entry fingerprint")
		if r.Err() != nil {
			return nil, r.Err()
		}
		entries = append(entries, Entry{ID: id, FP: Fingerprint(fp)})
		dict.add(Fingerprint(fp))
	}
	if flag := r.Byte("index flag"); r.Err() == nil && flag != 1 {
		return nil, fmt.Errorf("ccd: segment: version %d requires an embedded index, flag %d", version, flag)
	}
	size := r.Uvarint("index length")
	if r.Err() == nil && size > maxIndexSection {
		return nil, fmt.Errorf("ccd: segment: index length %d exceeds limit", size)
	}
	section := r.Take(size, "index")
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ccd: segment: %d trailing bytes after index", r.Len())
	}
	ix, err := openIndex(section)
	if err != nil {
		return nil, fmt.Errorf("ccd: segment: embedded index: %w", err)
	}
	if ix.N() != cfg.N {
		return nil, fmt.Errorf("ccd: segment: embedded index N=%d does not match config N=%d", ix.N(), cfg.N)
	}
	if ix.Len() != len(entries) {
		return nil, fmt.Errorf("ccd: segment: embedded index has %d docs, corpus has %d entries", ix.Len(), len(entries))
	}
	dict.index = nil // complete: only a corpus being built interns
	return &Corpus{cfg: cfg, index: ix, entries: entries, dict: dict}, nil
}
