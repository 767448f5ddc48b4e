// Package ssdeep implements context-triggered piecewise hashing (CTPH) from
// scratch, the fuzzy-hashing scheme popularized by the ssdeep tool
// (Kornblum 2006). Unlike a cryptographic hash, a CTPH digest changes only
// locally when the input changes locally: the input is cut into pieces at
// positions where a rolling hash fires a trigger, each piece is condensed to
// one base64 character by a piecewise hash, and the digest is the
// concatenation of those characters.
//
// Two entry points are provided:
//
//   - Hash: the classic whole-input digest "blocksize:sig1:sig2" with an
//     adaptive block size and a half-block-size second signature.
//   - Stream: the per-token mode used by the paper's clone detector CCD,
//     which condenses every externally supplied piece (a source token) to
//     one digest character, so that token-level edits perturb exactly the
//     corresponding characters of the fingerprint.
package ssdeep

import (
	"slices"
	"strings"
)

// b64 is the digest alphabet. It deliberately excludes '.' and ':' which the
// clone detector uses as sub-fingerprint separators.
const b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// SpamSumLength is the target digest length of the classic mode.
const SpamSumLength = 64

// MinBlockSize is the smallest trigger block size of the classic mode.
const MinBlockSize = 3

// rollingState is the ssdeep rolling hash over a 7-byte window.
type rollingState struct {
	window [7]byte
	h1     uint32
	h2     uint32
	h3     uint32
	n      uint32
}

func (r *rollingState) update(c byte) {
	r.h2 -= r.h1
	r.h2 += 7 * uint32(c)
	r.h1 += uint32(c)
	r.h1 -= uint32(r.window[r.n%7])
	r.window[r.n%7] = c
	r.n++
	r.h3 <<= 5
	r.h3 ^= uint32(c)
}

func (r *rollingState) sum() uint32 { return r.h1 + r.h2 + r.h3 }

// fnvInit/fnvPrime implement the FNV-1 32-bit piecewise hash ssdeep uses.
const (
	fnvInit  = 0x28021967
	fnvPrime = 0x01000193
)

func fnvStep(h uint32, c byte) uint32 { return (h * fnvPrime) ^ uint32(c) }

// Hash returns the classic CTPH digest of data in the form
// "blocksize:sig1:sig2" where sig2 is computed with twice the block size.
func Hash(data []byte) string {
	bs := chooseBlockSize(len(data))
	for {
		sig1, sig2 := signatures(data, bs)
		// ssdeep halves the block size while the signature stays too short.
		if bs > MinBlockSize && len(sig1) < SpamSumLength/2 {
			bs /= 2
			continue
		}
		var sb strings.Builder
		sb.Grow(len(sig1) + len(sig2) + 12)
		writeInt(&sb, bs)
		sb.WriteByte(':')
		sb.WriteString(sig1)
		sb.WriteByte(':')
		sb.WriteString(sig2)
		return sb.String()
	}
}

func writeInt(sb *strings.Builder, v int) {
	if v == 0 {
		sb.WriteByte('0')
		return
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	sb.Write(buf[i:])
}

func chooseBlockSize(n int) int {
	bs := MinBlockSize
	for bs*SpamSumLength < n {
		bs *= 2
	}
	return bs
}

// signatures computes the two piecewise signatures at block sizes bs and
// 2*bs in a single pass.
func signatures(data []byte, bs int) (string, string) {
	var roll rollingState
	var sig1, sig2 []byte
	h1, h2 := uint32(fnvInit), uint32(fnvInit)
	for _, c := range data {
		roll.update(c)
		h1 = fnvStep(h1, c)
		h2 = fnvStep(h2, c)
		rs := roll.sum()
		if rs%uint32(bs) == uint32(bs)-1 {
			if len(sig1) < SpamSumLength-1 {
				sig1 = append(sig1, b64[h1%64])
				h1 = fnvInit
			}
		}
		if rs%uint32(2*bs) == uint32(2*bs)-1 {
			if len(sig2) < SpamSumLength/2-1 {
				sig2 = append(sig2, b64[h2%64])
				h2 = fnvInit
			}
		}
	}
	// Trailing piece.
	if roll.sum() != 0 {
		sig1 = append(sig1, b64[h1%64])
		sig2 = append(sig2, b64[h2%64])
	}
	return string(sig1), string(sig2)
}

// Stream is the per-piece CTPH mode: every Write turns one externally
// delimited piece (e.g. a normalized source token) into exactly one digest
// character. The paper's CCD feeds tokens one by one, enforcing token
// context on the fingerprint: an inserted, deleted, or changed token
// perturbs exactly one character. A Stream that is Reset keeps its buffer,
// so one reused Stream digests source after source without growing again.
type Stream struct {
	buf []byte
}

// WriteToken appends the digest character for one token.
func (s *Stream) WriteToken(tok string) { s.buf = append(s.buf, TokenChar(tok)) }

// WriteSeparator appends a raw separator byte (e.g. '.' between functions,
// ':' between contracts) that is never produced by WriteToken.
func (s *Stream) WriteSeparator(c byte) { s.buf = append(s.buf, c) }

// String returns a copy of the digest accumulated so far.
func (s *Stream) String() string { return string(s.buf) }

// Len returns the digest length accumulated so far.
func (s *Stream) Len() int { return len(s.buf) }

// Grow makes room for n more digest characters without growing again.
func (s *Stream) Grow(n int) { s.buf = slices.Grow(s.buf, n) }

// Reset clears the stream for reuse.
func (s *Stream) Reset() { s.buf = s.buf[:0] }

// TokenChar returns the digest character WriteToken would emit for tok.
func TokenChar(tok string) byte {
	h := uint32(fnvInit)
	for i := 0; i < len(tok); i++ {
		h = fnvStep(h, tok[i])
	}
	return b64[h%64]
}
