package ccd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

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
// protecting Load from allocating garbage lengths out of corrupt input.
const maxSnapshotString = 1 << 26 // 64 MiB

// maxIndexSection bounds the embedded index section: posting data for
// million-document corpora runs well past maxSnapshotString.
const maxIndexSection = 1 << 30 // 1 GiB

// crcWriter tees writes into a running CRC-32.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

func (cw *crcWriter) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := cw.Write(buf[:n])
	return err
}

func (cw *crcWriter) writeString(s string) error {
	if err := cw.writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(cw, s)
	return err
}

func (cw *crcWriter) writeFloat(f float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := cw.Write(buf[:])
	return err
}

// Save writes the corpus in the versioned binary snapshot format.
func (c *Corpus) Save(w io.Writer) error {
	cw := &crcWriter{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return err
	}
	if err := cw.writeUvarint(SnapshotVersion); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(c.cfg.N)); err != nil {
		return err
	}
	if err := cw.writeFloat(c.cfg.Eta); err != nil {
		return err
	}
	if err := cw.writeFloat(c.cfg.Epsilon); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(len(c.entries))); err != nil {
		return err
	}
	for _, e := range c.entries {
		if err := cw.writeString(e.ID); err != nil {
			return err
		}
		if err := cw.writeString(string(e.FP)); err != nil {
			return err
		}
	}
	// Always embed the docless index: it is the runtime format, so a mapped
	// open must find it in the file (ids live in the entry table above).
	var encoded bytes.Buffer
	if err := c.index.SaveDocless(&encoded); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{1}); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(encoded.Len())); err != nil {
		return err
	}
	if _, err := cw.Write(encoded.Bytes()); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc.Sum32())
	if _, err := cw.w.Write(trailer[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// crcReader tees reads into a running CRC-32. It implements io.ByteReader so
// varints can be decoded without over-reading.
type crcReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc.Write([]byte{b})
	}
	return b, err
}

func (cr *crcReader) readUvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, fmt.Errorf("ccd: snapshot: read %s: %w", what, corruptEOF(err))
	}
	return v, nil
}

func (cr *crcReader) readString(what string) (string, error) {
	n, err := cr.readUvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", fmt.Errorf("ccd: snapshot: %s length %d exceeds limit", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cr, buf); err != nil {
		return "", fmt.Errorf("ccd: snapshot: read %s: %w", what, corruptEOF(err))
	}
	return string(buf), nil
}

func (cr *crcReader) readFloat(what string) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(cr, buf[:]); err != nil {
		return 0, fmt.Errorf("ccd: snapshot: read %s: %w", what, corruptEOF(err))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// corruptEOF maps a clean EOF inside a structure to ErrUnexpectedEOF: any
// end-of-input after the magic means a truncated snapshot.
func corruptEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Load reads a snapshot written by Save and returns the reconstructed
// corpus. The whole payload is CRC-checked; truncated or corrupted input
// yields an error, never a silently partial corpus.
func Load(r io.Reader) (*Corpus, error) {
	cr := &crcReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("ccd: snapshot: read magic: %w", corruptEOF(err))
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("ccd: snapshot: bad magic %q", magic)
	}
	version, err := cr.readUvarint("version")
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("ccd: snapshot: unsupported version %d (want %d)", version, SnapshotVersion)
	}
	n, err := cr.readUvarint("config N")
	if err != nil {
		return nil, err
	}
	eta, err := cr.readFloat("config Eta")
	if err != nil {
		return nil, err
	}
	eps, err := cr.readFloat("config Epsilon")
	if err != nil {
		return nil, err
	}
	cfg := Config{N: int(n), Eta: eta, Epsilon: eps}
	count, err := cr.readUvarint("entry count")
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, min(count, 1<<20))
	for i := uint64(0); i < count; i++ {
		id, err := cr.readString("entry id")
		if err != nil {
			return nil, err
		}
		fp, err := cr.readString("entry fingerprint")
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{ID: id, FP: Fingerprint(fp)})
	}
	flag, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccd: snapshot: read index flag: %w", corruptEOF(err))
	}
	if flag != 1 {
		return nil, fmt.Errorf("ccd: snapshot: version %d requires an embedded index, flag %d", version, flag)
	}
	size, err := cr.readUvarint("index length")
	if err != nil {
		return nil, err
	}
	if size > maxIndexSection {
		return nil, fmt.Errorf("ccd: snapshot: index length %d exceeds limit", size)
	}
	section := io.LimitReader(cr, int64(size))
	index, err := ngram.Load(section)
	if err != nil {
		return nil, fmt.Errorf("ccd: snapshot: embedded index: %w", err)
	}
	// Keep stream (and CRC) alignment even if the codec left padding.
	if _, err := io.Copy(io.Discard, section); err != nil {
		return nil, fmt.Errorf("ccd: snapshot: embedded index: %w", err)
	}
	if index.N() != cfg.N {
		return nil, fmt.Errorf("ccd: snapshot: embedded index N=%d does not match config N=%d", index.N(), cfg.N)
	}
	if index.Len() != len(entries) {
		return nil, fmt.Errorf("ccd: snapshot: embedded index has %d docs, corpus has %d entries", index.Len(), len(entries))
	}
	sum := cr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("ccd: snapshot: read checksum: %w", corruptEOF(err))
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("ccd: snapshot: checksum mismatch (stored %08x, computed %08x)", got, sum)
	}

	return &Corpus{cfg: cfg, index: index, entries: entries}, nil
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
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, fmt.Errorf("ccd: segment: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("ccd: segment: bad magic %q", data[:len(snapshotMagic)])
	}
	version, w := binary.Uvarint(data[len(snapshotMagic):])
	if w <= 0 {
		return nil, fmt.Errorf("ccd: segment: bad version")
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("ccd: segment: unsupported version %d (want %d)", version, SnapshotVersion)
	}
	// The CRC trailer covers the whole body; checking it up front also
	// bounds every length field below by construction — a bit flip anywhere
	// is caught here, not by a parser edge case.
	body := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("ccd: segment: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	r := &byteCursor{b: body[len(snapshotMagic)+w:]}
	n := r.uvarint("config N")
	eta := r.float("config Eta")
	eps := r.float("config Epsilon")
	count := r.uvarint("entry count")
	if r.err != nil {
		return nil, r.err
	}
	entries := make([]Entry, 0, min(count, 1<<20))
	for i := uint64(0); i < count; i++ {
		id := r.str("entry id")
		fp := r.str("entry fingerprint")
		if r.err != nil {
			return nil, r.err
		}
		entries = append(entries, Entry{ID: id, FP: Fingerprint(fp)})
	}
	if flag := r.byteVal("index flag"); r.err == nil && flag != 1 {
		return nil, fmt.Errorf("ccd: segment: version %d requires an embedded index, flag %d", version, flag)
	}
	size := r.uvarint("index length")
	if r.err == nil && size > maxIndexSection {
		return nil, fmt.Errorf("ccd: snapshot: index length %d exceeds limit", size)
	}
	section := r.take(size, "index")
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ccd: segment: %d trailing bytes after index", len(r.b))
	}
	ix, err := ngram.FromBytes(section)
	if err != nil {
		return nil, fmt.Errorf("ccd: segment: embedded index: %w", err)
	}
	if ix.N() != int(n) {
		return nil, fmt.Errorf("ccd: snapshot: embedded index N=%d does not match config N=%d", ix.N(), n)
	}
	if ix.Len() != len(entries) {
		return nil, fmt.Errorf("ccd: snapshot: embedded index has %d docs, corpus has %d entries", ix.Len(), len(entries))
	}
	return &Corpus{
		cfg:     Config{N: int(n), Eta: eta, Epsilon: eps},
		index:   ix,
		entries: entries,
		mapRef:  ref,
		sealed:  true,
	}, nil
}

// byteCursor parses length-delimited sections out of a byte slice with a
// sticky error; take hands out 3-index subslices so nothing downstream can
// append into (or read past) a read-only mapping.
type byteCursor struct {
	b   []byte
	err error
}

func (r *byteCursor) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.err = fmt.Errorf("ccd: segment: read %s: bad uvarint", what)
		return 0
	}
	r.b = r.b[w:]
	return v
}

func (r *byteCursor) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("ccd: segment: read %s: need %d bytes, have %d", what, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *byteCursor) byteVal(what string) byte {
	b := r.take(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *byteCursor) str(what string) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > maxSnapshotString {
		r.err = fmt.Errorf("ccd: snapshot: %s length %d exceeds limit", what, n)
		return ""
	}
	return string(r.take(n, what))
}

func (r *byteCursor) float(what string) float64 {
	b := r.take(8, what)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
