package ngram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alphabet = "abcdefgh."
	for trial := 0; trial < 10; trial++ {
		ix := New(2 + trial%3)
		docs := rng.Intn(50)
		var strs []string
		for d := 0; d < docs; d++ {
			n := rng.Intn(60)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alphabet[rng.Intn(len(alphabet))]
			}
			s := string(buf)
			strs = append(strs, s)
			ix.Add(fmt.Sprintf("doc-%d", d), s)
		}

		var enc bytes.Buffer
		if err := ix.Save(&enc); err != nil {
			t.Fatalf("save: %v", err)
		}
		got, err := Load(enc.Bytes())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got.N() != ix.N() || got.Len() != ix.Len() {
			t.Fatalf("n=%d len=%d, want n=%d len=%d", got.N(), got.Len(), ix.N(), ix.Len())
		}
		for i, s := range strs {
			want := ix.Query(s, 0.5)
			have := got.Query(s, 0.5)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("trial %d query %d: %v != %v", trial, i, have, want)
			}
		}
	}
}

// TestCodecRejectsDuplicatePostings: a zero posting delta after the first
// entry would put the same document twice in a list, violating the strictly
// increasing invariant the query merge relies on — Load must refuse it.
func TestCodecRejectsDuplicatePostings(t *testing.T) {
	ix := New(3)
	ix.Add("a", "abcd")
	ix.Add("b", "abcd")
	var enc bytes.Buffer
	if err := ix.Save(&enc); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	// Postings for each gram are docs [0,1], delta-encoded 0x00 0x01 at the
	// stream tail. Zeroing the final delta makes the list [0,0].
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)-1] = 0x00
	if _, err := Load(corrupt); err == nil {
		t.Error("duplicate posting accepted")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not an index")); err == nil {
		t.Error("garbage accepted")
	}
	ix := New(3)
	ix.Add("a", "abcdef")
	var enc bytes.Buffer
	if err := ix.Save(&enc); err != nil {
		t.Fatal(err)
	}
	full := enc.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := Load(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestCodecRejectsVersion1: a well-formed version-1 stream (flat delta runs,
// doc table always present — the format Load once re-blocked) is refused by
// version on both readers; there is one format generation.
func TestCodecRejectsVersion1(t *testing.T) {
	v1 := []byte(codecMagic)
	v1 = binary.AppendUvarint(v1, 1) // version
	v1 = binary.AppendUvarint(v1, 3) // n
	v1 = binary.AppendUvarint(v1, 1) // one doc
	v1 = binary.AppendUvarint(v1, 1)
	v1 = append(v1, 'a')
	v1 = binary.AppendUvarint(v1, 1) // its distinct-gram count
	v1 = binary.AppendUvarint(v1, 1) // one gram
	v1 = binary.AppendUvarint(v1, 3)
	v1 = append(v1, "abc"...)
	v1 = binary.AppendUvarint(v1, 1) // one posting
	v1 = binary.AppendUvarint(v1, 0) // doc 0
	if _, err := Load(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("Load on a version-1 index: %v, want an unsupported-version error", err)
	}
	if _, err := FromBytes(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("FromBytes on a version-1 index: %v, want an unsupported-version error", err)
	}
}
