// Package binfmt holds the byte-level primitives the snapshot codecs share:
// the NGIX index codec (internal/ngram), the CCDSNAP segment format
// (internal/ccd), the SVCSNAP envelope (internal/service) and the shard match
// messages (internal/remote). Fields are uvarints, little-endian float64s and
// uvarint-length-prefixed byte strings. Both directions keep a sticky error,
// so a codec reads or writes a run of fields and checks once.
package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Cursor parses fields out of a byte slice held fully in memory. The first
// failure sticks: later reads return zero values and Err reports it. Take
// hands out 3-index subslices, so nothing downstream can append into (or
// read past) the underlying buffer, which may be a read-only memory mapping.
type Cursor struct {
	b      []byte
	prefix string
	err    error
}

// NewCursor returns a cursor over b whose errors start with prefix (the
// caller's package and format, such as "ngram:").
func NewCursor(b []byte, prefix string) *Cursor {
	return &Cursor{b: b, prefix: prefix}
}

// Err reports the first failed read, or nil.
func (r *Cursor) Err() error { return r.err }

// Len reports the bytes not yet read.
func (r *Cursor) Len() int { return len(r.b) }

// Uvarint reads one uvarint in its shortest form. An over-long encoding
// (a last byte of zero) is refused, so each value has one byte form and a
// decoded message re-encodes to the bytes it came from.
func (r *Cursor) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 || (w > 1 && r.b[w-1] == 0) {
		r.err = fmt.Errorf("%s read %s: bad uvarint", r.prefix, what)
		return 0
	}
	r.b = r.b[w:]
	return v
}

// Take reads the next n bytes in place.
func (r *Cursor) Take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("%s read %s: need %d bytes, have %d", r.prefix, what, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Cursor) Byte(what string) byte {
	b := r.Take(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

// Float64 reads one little-endian IEEE 754 float64.
func (r *Cursor) Float64(what string) float64 {
	b := r.Take(8, what)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a uvarint-length-prefixed string of at most max bytes and copies
// it to the heap, so it outlives the buffer.
func (r *Cursor) Str(max uint64, what string) string {
	n := r.Uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > max {
		r.err = fmt.Errorf("%s %s length %d exceeds limit %d", r.prefix, what, n, max)
		return ""
	}
	return string(r.Take(n, what))
}

// Writer encodes fields into a buffered stream. The first failure sticks:
// later writes are dropped and Flush reports it. Writes larger than the
// buffer go straight through to the underlying writer, so a codec streams
// its output and never holds it whole.
type Writer struct {
	w       *bufio.Writer
	err     error
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter returns a writer buffering into w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// raw writes b as is.
func (w *Writer) raw(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// RawString writes s as is.
func (w *Writer) RawString(s string) {
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) {
	if w.err == nil {
		w.err = w.w.WriteByte(b)
	}
}

// Uvarint writes one uvarint.
func (w *Writer) Uvarint(v uint64) {
	w.raw(w.scratch[:binary.PutUvarint(w.scratch[:], v)])
}

// Float64 writes one little-endian IEEE 754 float64.
func (w *Writer) Float64(f float64) {
	w.raw(binary.LittleEndian.AppendUint64(w.scratch[:0], math.Float64bits(f)))
}

// Str writes s with a uvarint length prefix (read back by Cursor.Str).
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.RawString(s)
}

// Blob writes b with a uvarint length prefix.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.raw(b)
}

// Flush writes out any buffered bytes and reports the first failure.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}
