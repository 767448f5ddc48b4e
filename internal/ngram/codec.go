package ngram

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary index encoding. The format is versioned independently of the corpus
// snapshot that may embed it:
//
//	magic   "NGIX"
//	uvarint version
//
// Version 2, the only one read or written, stores posting lists in their
// runtime block-compressed form, so an index can be opened zero-copy over the
// encoded bytes (FromBytes) — the on-disk format IS the in-memory format:
//
//	uvarint n-gram size
//	uvarint posting block size
//	uvarint flags (bit 0: doc-id table present)
//	uvarint doc count
//	per doc (flag bit 0 only): string id, uvarint distinct-gram count
//	uvarint gram count
//	per gram (sorted ascending): string gram, uvarint posting count,
//	                             uvarint skip-table length + skip bytes,
//	                             uvarint delta-stream length + delta bytes
//
// The skip table and delta stream are exactly the sealed postings layout of
// postings.go: one 8-byte (first id, byte offset) entry per block, then the
// concatenated per-block varint delta streams. Strings are
// uvarint-length-prefixed. Flag bit 0 off is the "docless" embedding used
// inside corpus snapshots whose owner resolves ids itself. Any other version
// is refused with an "unsupported version" error.
const (
	codecMagic   = "NGIX"
	codecVersion = 2

	maxDocIDLen = 1 << 24
	maxGramLen  = 1 << 20
)

// Save writes the index in the binary codec format (version 2), including
// the doc-id table when the index has one.
func (ix *Index) Save(w io.Writer) error {
	return ix.save(w, ix.docs != nil || ix.docCount == 0)
}

// SaveDocless writes the index without its doc-id table — the embedded form
// for containers (corpus snapshots) that store ids themselves. An index
// loaded from it reports Docless() and returns empty Candidate.IDs.
func (ix *Index) SaveDocless(w io.Writer) error {
	return ix.save(w, false)
}

func (ix *Index) save(w io.Writer, withDocs bool) error {
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	writeBytes := func(b []byte) error {
		if err := writeUvarint(uint64(len(b))); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}

	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := writeUvarint(codecVersion); err != nil {
		return err
	}
	if err := writeUvarint(uint64(ix.n)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(ix.blockSize)); err != nil {
		return err
	}
	flags := uint64(0)
	if withDocs {
		flags |= 1
	}
	if err := writeUvarint(flags); err != nil {
		return err
	}
	if err := writeUvarint(uint64(ix.docCount)); err != nil {
		return err
	}
	if withDocs {
		for _, d := range ix.docs {
			if err := writeString(d.id); err != nil {
				return err
			}
			if err := writeUvarint(uint64(d.ngrams)); err != nil {
				return err
			}
		}
	}
	grams := make([]string, 0, len(ix.postings))
	for g := range ix.postings {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	if err := writeUvarint(uint64(len(grams))); err != nil {
		return err
	}
	for _, g := range grams {
		if err := writeString(g); err != nil {
			return err
		}
		p := ix.postings[g]
		if err := writeUvarint(uint64(p.count)); err != nil {
			return err
		}
		skips, data := encodedPostings(p)
		if err := writeBytes(skips); err != nil {
			return err
		}
		if err := writeBytes(data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads an index written by Save. The result is mutable: further Adds
// continue from the loaded doc count (docless indexes stay docless — their
// owner resolves ids by doc number).
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ngram: read magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("ngram: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ngram: read version: %w", err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("ngram: unsupported version %d (want %d)", version, codecVersion)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("ngram: read index body: %w", err)
	}
	ix, err := parseBody(&byteReader{b: rest})
	if err != nil {
		return nil, err
	}
	for _, p := range ix.postings {
		p.unseal(ix.blockSize)
	}
	ix.sealed = false
	return ix, nil
}

// FromBytes opens an encoded index (codec version 2) zero-copy: posting
// bytes alias data, which the caller must keep alive and immutable — this is
// how memory-mapped segment files become live indexes without a decode pass.
// Gram and doc-id strings are copied to the heap (they outlive remaps), and
// every posting list is fully validated up front so query-time decoding has
// no error paths. The returned index is sealed: Add panics.
func FromBytes(data []byte) (*Index, error) {
	r := &byteReader{b: data}
	magic := r.take(uint64(len(codecMagic)), "magic")
	if r.err != nil {
		return nil, r.err
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("ngram: bad magic %q", magic)
	}
	version := r.uvarint("version")
	if r.err != nil {
		return nil, r.err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("ngram: unsupported version %d (want %d)", version, codecVersion)
	}
	return parseBody(r)
}

// parseBody parses a version-2 stream after the magic+version header and
// returns a sealed index aliasing r's remaining bytes.
func parseBody(r *byteReader) (*Index, error) {
	n := r.uvarint("n")
	blockSize := r.uvarint("block size")
	flags := r.uvarint("flags")
	docCount := r.uvarint("doc count")
	if r.err != nil {
		return nil, r.err
	}
	if n < 1 || n > maxGramLen {
		return nil, fmt.Errorf("ngram: n-gram size %d out of range", n)
	}
	if docCount > 1<<31 {
		return nil, fmt.Errorf("ngram: doc count %d out of range", docCount)
	}
	if blockSize < 1 || blockSize > 1<<16 {
		return nil, fmt.Errorf("ngram: block size %d out of range [1, 65536]", blockSize)
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("ngram: unknown flag bits %#x", flags&^1)
	}
	ix := &Index{
		n:         int(n),
		blockSize: int(blockSize),
		postings:  make(map[string]*postings),
		docCount:  int(docCount),
		sealed:    true,
	}
	if flags&1 != 0 {
		// Cap the pre-allocation: docCount is untrusted and the loop grows
		// organically past the cap if the stream really is that long.
		ix.docs = make([]doc, 0, min(docCount, 1<<20))
		for i := uint64(0); i < docCount; i++ {
			id := r.str(maxDocIDLen, "doc id")
			grams := r.uvarint("doc gram count")
			if r.err != nil {
				return nil, r.err
			}
			ix.docs = append(ix.docs, doc{id: id, ngrams: int(grams)})
		}
	}
	numGrams := r.uvarint("gram count")
	if r.err != nil {
		return nil, r.err
	}
	prev := ""
	for i := uint64(0); i < numGrams; i++ {
		g := r.str(maxGramLen, "gram")
		count := r.uvarint("posting count")
		skips := r.take(r.uvarint("skip table length"), "skip table")
		data := r.take(r.uvarint("delta stream length"), "delta stream")
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && g <= prev {
			return nil, fmt.Errorf("ngram: gram %q out of order after %q", g, prev)
		}
		prev = g
		p, err := parsePostings(count, ix.blockSize, skips, data, ix.docCount)
		if err != nil {
			return nil, fmt.Errorf("gram %q: %w", g, err)
		}
		ix.postings[g] = p
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ngram: %d trailing bytes after index", len(r.b))
	}
	return ix, nil
}

// byteReader parses length-delimited sections out of a byte slice with a
// sticky error, handing out 3-index subslices so nothing downstream can
// append into (or read past) the underlying buffer — which may be a
// read-only memory mapping.
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.err = fmt.Errorf("ngram: read %s: bad uvarint", what)
		return 0
	}
	r.b = r.b[w:]
	return v
}

func (r *byteReader) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("ngram: read %s: need %d bytes, have %d", what, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) str(max uint64, what string) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > max {
		r.err = fmt.Errorf("ngram: %s length %d exceeds limit %d", what, n, max)
		return ""
	}
	return string(r.take(n, what))
}
