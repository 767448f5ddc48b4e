package binfmt

import (
	"bytes"
	"strings"
	"testing"
)

// TestRoundTrip: every field the Writer encodes reads back through a Cursor,
// which then holds no bytes.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RawString("MAGC")
	w.Uvarint(300)
	w.Float64(0.5)
	w.Byte(7)
	w.Str("id")
	w.Blob([]byte{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewCursor(buf.Bytes(), "test:")
	magic := r.Take(4, "magic")
	v := r.Uvarint("v")
	f := r.Float64("f")
	b := r.Byte("b")
	s := r.Str(2, "s")
	blob := r.Take(r.Uvarint("blob length"), "blob")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if string(magic) != "MAGC" || v != 300 || f != 0.5 || b != 7 || s != "id" || !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Fatalf("read back %q %d %v %d %q %v", magic, v, f, b, s, blob)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left", r.Len())
	}
}

// TestCursorSticksAndCaps: Take hands out slices capped at their length, so
// an append cannot write into the buffer; the first failure sticks, carries
// the caller's prefix, and later reads return zero values.
func TestCursorSticksAndCaps(t *testing.T) {
	data := []byte{2, 'a', 'b', 'c'}
	r := NewCursor(data, "test:")
	got := r.Take(r.Uvarint("n"), "two")
	if cap(got) != 2 {
		t.Fatalf("Take returned cap %d, want 2", cap(got))
	}
	_ = append(got, 'X')
	if data[3] != 'c' {
		t.Fatal("append through a taken slice wrote into the buffer")
	}
	if r.Take(5, "five") != nil || r.Err() == nil {
		t.Fatal("over-long Take succeeded")
	}
	first := r.Err()
	if !strings.HasPrefix(first.Error(), "test: read five") {
		t.Fatalf("error %q lacks the prefix and field", first)
	}
	if r.Uvarint("later") != 0 || r.Byte("later") != 0 || r.Str(9, "later") != "" || r.Err() != first {
		t.Fatal("a read after a failure did not return zero or replaced the first error")
	}
	if s := NewCursor([]byte{3, 'a', 'b', 'c'}, "test:").Str(2, "s"); s != "" {
		t.Fatalf("Str over its limit returned %q", s)
	}
	// 0x80 0x00 is zero in two bytes: one value, one byte form.
	if r := NewCursor([]byte{0x80, 0x00}, "test:"); r.Uvarint("long") != 0 || r.Err() == nil {
		t.Fatal("an over-long uvarint was read")
	}
}
