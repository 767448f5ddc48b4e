package ngram

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/binfmt"
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
// loaded from it carries no doc-id table, and its QueryGramsScratch leaves
// Candidate.ID empty.
func (ix *Index) SaveDocless(w io.Writer) error {
	return ix.save(w, false)
}

func (ix *Index) save(w io.Writer, withDocs bool) error {
	bw := binfmt.NewWriter(w)
	bw.RawString(codecMagic)
	bw.Uvarint(codecVersion)
	bw.Uvarint(uint64(ix.n))
	bw.Uvarint(uint64(ix.blockSize))
	flags := uint64(0)
	if withDocs {
		flags |= 1
	}
	bw.Uvarint(flags)
	bw.Uvarint(uint64(ix.docCount))
	if withDocs {
		for _, d := range ix.docs {
			bw.Str(d.id)
			bw.Uvarint(uint64(d.ngrams))
		}
	}
	grams := make([]string, 0, len(ix.postings))
	for g := range ix.postings {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	bw.Uvarint(uint64(len(grams)))
	for _, g := range grams {
		bw.Str(g)
		p := ix.postings[g]
		bw.Uvarint(uint64(p.count))
		skips, data := encodedPostings(p)
		bw.Blob(skips)
		bw.Blob(data)
	}
	return bw.Flush()
}

// Load reads an index written by Save into a mutable index of its own: the
// bytes are copied once and parsed by FromBytes, then every posting list is
// unsealed, so further Adds continue from the loaded doc count (docless
// indexes stay docless — their owner resolves ids by doc number). The
// signature FromBytes built serves queries until the first Add drops it.
// data is not retained.
func Load(data []byte) (*Index, error) {
	ix, err := FromBytes(bytes.Clone(data))
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
// how memory-mapped segment files become live indexes without a rebuild.
// Gram and doc-id strings are copied to the heap (they outlive remaps), and
// every posting list is fully validated up front — every block decoded once,
// which reads every posting page — so query-time decoding has no error paths.
// The same pass fills the signature of the dense lists (denseList) on the
// heap, its columns counted from the gram headers beforehand. The returned
// index is sealed: Add panics. This is the one NGIX parser; Load reaches it
// too.
func FromBytes(data []byte) (*Index, error) {
	r := binfmt.NewCursor(data, "ngram:")
	magic := r.Take(uint64(len(codecMagic)), "magic")
	if r.Err() != nil {
		return nil, r.Err()
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("ngram: bad magic %q", magic)
	}
	version := r.Uvarint("version")
	if r.Err() != nil {
		return nil, r.Err()
	}
	if version != codecVersion {
		return nil, fmt.Errorf("ngram: unsupported version %d (want %d)", version, codecVersion)
	}
	n := r.Uvarint("n")
	blockSize := r.Uvarint("block size")
	flags := r.Uvarint("flags")
	docCount := r.Uvarint("doc count")
	if r.Err() != nil {
		return nil, r.Err()
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
		// organically past the cap if the input really is that long.
		ix.docs = make([]doc, 0, min(docCount, 1<<20))
		for i := uint64(0); i < docCount; i++ {
			id := r.Str(maxDocIDLen, "doc id")
			grams := r.Uvarint("doc gram count")
			if r.Err() != nil {
				return nil, r.Err()
			}
			ix.docs = append(ix.docs, doc{id: id, ngrams: int(grams)})
		}
	}
	numGrams := r.Uvarint("gram count")
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Count the dense lists from the gram headers alone, so the signature
	// exists before the one pass that decodes every block.
	headers := *r
	cols := 0
	for i := uint64(0); i < numGrams && headers.Err() == nil; i++ {
		headers.Take(headers.Uvarint("gram length"), "gram")
		count, skips, data := readPostings(&headers)
		if headers.Err() == nil && denseEncoded(count, skips, data, ix.blockSize, ix.docCount) {
			cols++
		}
	}
	ix.sig = newSignature(cols, ix.docCount)
	prev := ""
	col := int32(0) // the last column given out
	for i := uint64(0); i < numGrams; i++ {
		g := r.Str(maxGramLen, "gram")
		count, skips, data := readPostings(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if i > 0 && g <= prev {
			return nil, fmt.Errorf("ngram: gram %q out of order after %q", g, prev)
		}
		prev = g
		c := int32(0)
		if denseEncoded(count, skips, data, ix.blockSize, ix.docCount) {
			col++
			c = col
		}
		p, err := parsePostings(count, ix.blockSize, skips, data, ix.docCount, &ix.sig, c)
		if err != nil {
			return nil, fmt.Errorf("gram %q: %w", g, err)
		}
		ix.postings[g] = p
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ngram: %d trailing bytes after index", r.Len())
	}
	return ix, nil
}

// readPostings reads one gram's encoded posting list, the fields after its
// name.
func readPostings(r *binfmt.Cursor) (count uint64, skips, data []byte) {
	count = r.Uvarint("posting count")
	skips = r.Take(r.Uvarint("skip table length"), "skip table")
	data = r.Take(r.Uvarint("delta stream length"), "delta stream")
	return count, skips, data
}

// denseEncoded applies the dense rule to an encoded list before it is
// validated. The length checks, which validation demands anyway (a skip entry
// per block, a delta byte per other id), keep the signature's allocation
// within the input's own bytes.
func denseEncoded(count uint64, skips, data []byte, blockSize, docCount int) bool {
	if count == 0 || count > uint64(docCount) || !denseList(int(count), blockSize, docCount) {
		return false
	}
	blocks := (int(count) + blockSize - 1) / blockSize
	return len(skips) == blocks*skipEntryBytes && len(data) >= int(count)-blocks
}
