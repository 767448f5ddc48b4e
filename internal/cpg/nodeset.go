package cpg

import (
	"iter"
	"math/bits"
)

// NodeSet is a set of nodes of one graph: a bitset over node IDs. It is a
// reference type like a map, so copies share their contents, and it iterates
// in ID order. The zero NodeSet is empty and read-only.
type NodeSet struct {
	words []uint64
	nodes []*Node // the graph's nodes, to map IDs back for All
}

// NewNodeSet returns an empty set able to hold any node g has now.
func NewNodeSet(g *Graph) NodeSet {
	return NodeSet{words: make([]uint64, (len(g.Nodes)+63)/64), nodes: g.Nodes}
}

// Has reports whether n is in the set.
func (s NodeSet) Has(n *Node) bool {
	w := n.ID >> 6
	return w < len(s.words) && s.words[w]&(1<<(n.ID&63)) != 0
}

// Add puts n in the set and reports whether it was absent.
func (s NodeSet) Add(n *Node) bool {
	w, bit := n.ID>>6, uint64(1)<<(n.ID&63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// Remove takes n out of the set.
func (s NodeSet) Remove(n *Node) {
	if w := n.ID >> 6; w < len(s.words) {
		s.words[w] &^= 1 << (n.ID & 63)
	}
}

// Len returns the number of nodes in the set.
func (s NodeSet) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// All yields the set's nodes in ID order.
func (s NodeSet) All() iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		for i, w := range s.words {
			for ; w != 0; w &= w - 1 {
				if !yield(s.nodes[i<<6|bits.TrailingZeros64(w)]) {
					return
				}
			}
		}
	}
}
