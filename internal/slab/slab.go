// Package slab hands out values and runs of values from chunked memory that
// is cleared and reused rather than collected: the arena behind a syntax
// tree (internal/solidity) and a code property graph (internal/cpg). Chunks
// never move, so every pointer and run handed out stays valid until Reset.
package slab

import "unsafe"

// firstChunkBytes sizes a slab's first chunk; each further chunk doubles
// the one before. It is small because an arena that is never recycled
// starts from nothing on every use, and most types of a syntax tree occur
// a handful of times in one source.
const firstChunkBytes = 512

// Slab hands out runs of T from its chunks; a chunk's length is the part
// handed out, and chunks before cur are spent. The zero value is empty and
// ready to use.
type Slab[T any] struct {
	chunks [][]T
	cur    int
}

// Take returns an empty run with room for n values.
func (s *Slab[T]) Take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if l := len(c); cap(c)-l >= n {
			s.chunks[s.cur] = c[:l+n]
			return c[l : l : l+n]
		}
	}
	var zero T
	size := max(firstChunkBytes/int(max(unsafe.Sizeof(zero), 1)), 1)
	if k := len(s.chunks); k > 0 {
		size = 2 * cap(s.chunks[k-1])
	}
	c := make([]T, n, max(size, n))
	s.chunks = append(s.chunks, c)
	return c[:0:n]
}

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T { return &s.Take(1)[:1][0] }

// Put returns a pointer to a copy of v.
func (s *Slab[T]) Put(v T) *T {
	p := s.New()
	*p = v
	return p
}

// Append is the built-in append for runs of s: a full run moves to a run of
// twice its capacity, leaving the old one spent until Reset.
func (s *Slab[T]) Append(run []T, v T) []T {
	if len(run) == cap(run) {
		run = append(s.Take(max(2*cap(run), 1)), run...)
	}
	return append(run, v)
}

// Reset clears every value handed out, so that nothing they pointed to
// stays reachable, and returns the bytes of all chunks.
func (s *Slab[T]) Reset() int {
	n := 0
	for i, c := range s.chunks {
		clear(c)
		s.chunks[i] = c[:0]
		n += cap(c)
	}
	s.cur = 0
	var zero T
	return n * int(unsafe.Sizeof(zero))
}
