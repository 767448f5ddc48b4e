package cpg

import (
	"sync"
	"unsafe"
)

// An arena holds one graph's memory: its nodes, their edge-list headers and
// neighbour lists in chunked slabs, and the backing array of Graph.Nodes.
// Chunks grow geometrically and never move, so every *Node and every list
// handed out stays valid while the graph lives. Graph.Release clears the
// arena and returns it to arenaPool for the next graph.
type arena struct {
	nodes slab[Node]
	heads slab[edges]
	lists slab[*Node]
	ids   []*Node
}

// maxPooledArena caps the bytes of an arena arenaPool keeps, so that one
// graph far larger than the rest does not pin its memory.
const maxPooledArena = 4 << 20

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// appendEdge appends to to the list of the given kind, opening the list if
// the node has none of that kind yet.
func (a *arena) appendEdge(es []edges, kind EdgeKind, to *Node) []edges {
	for i := range es {
		if es[i].kind == kind {
			es[i].nodes = a.lists.append(es[i].nodes, to)
			return es
		}
	}
	return a.heads.append(es, edges{kind, a.lists.append(nil, to)})
}

// reset clears everything handed out, so that no old graph or source stays
// reachable, and returns the bytes the arena holds.
func (a *arena) reset() int {
	clear(a.ids)
	a.ids = a.ids[:0]
	return a.nodes.reset() + a.heads.reset() + a.lists.reset() + cap(a.ids)*int(unsafe.Sizeof((*Node)(nil)))
}

// firstChunk is the element count of a slab's first chunk; each further
// chunk doubles the one before.
const firstChunk = 64

// slab hands out runs of T from its chunks; a chunk's length is the part
// handed out, and chunks before cur are spent.
type slab[T any] struct {
	chunks [][]T
	cur    int
}

// take returns an empty run with room for n values.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if l := len(c); cap(c)-l >= n {
			s.chunks[s.cur] = c[:l+n]
			return c[l : l : l+n]
		}
	}
	size := firstChunk
	if k := len(s.chunks); k > 0 {
		size = 2 * cap(s.chunks[k-1])
	}
	c := make([]T, n, max(size, n))
	s.chunks = append(s.chunks, c)
	return c[:0:n]
}

// new returns a pointer to a zero T.
func (s *slab[T]) new() *T { return &s.take(1)[:1][0] }

// append is the built-in append for runs of s: a full run moves to a run of
// twice its capacity, leaving the old one spent until reset.
func (s *slab[T]) append(run []T, v T) []T {
	if len(run) == cap(run) {
		run = append(s.take(max(2*cap(run), 1)), run...)
	}
	return append(run, v)
}

// reset clears every value handed out and returns the bytes of all chunks.
func (s *slab[T]) reset() int {
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
