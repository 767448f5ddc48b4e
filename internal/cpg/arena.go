package cpg

import (
	"sync"
	"unsafe"

	"repro/internal/slab"
)

// An arena holds one graph's memory: its nodes, their edge-list headers and
// neighbour lists in chunked slabs, and the backing array of Graph.Nodes.
// Chunks grow geometrically and never move, so every *Node and every list
// handed out stays valid while the graph lives. Graph.Release clears the
// arena and returns it to arenaPool for the next graph.
type arena struct {
	nodes slab.Slab[Node]
	heads slab.Slab[edges]
	lists slab.Slab[*Node]
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
			es[i].nodes = a.lists.Append(es[i].nodes, to)
			return es
		}
	}
	return a.heads.Append(es, edges{kind, a.lists.Append(nil, to)})
}

// reset clears everything handed out, so that no old graph or source stays
// reachable, and returns the bytes the arena holds.
func (a *arena) reset() int {
	clear(a.ids)
	a.ids = a.ids[:0]
	return a.nodes.Reset() + a.heads.Reset() + a.lists.Reset() + cap(a.ids)*int(unsafe.Sizeof((*Node)(nil)))
}
