package cpg

import (
	"slices"
	"testing"
)

// TestNodeSet checks membership, the count and ID-order iteration across a
// word boundary, whatever the order the nodes were added in.
func TestNodeSet(t *testing.T) {
	g := NewGraph()
	for range 130 {
		g.NewNode(LBlock)
	}
	var zero NodeSet
	if zero.Has(g.Nodes[0]) || zero.Len() != 0 {
		t.Fatal("zero NodeSet is not empty")
	}
	s := NewNodeSet(g)
	add := []int{129, 3, 64, 63, 0, 64}
	for i, id := range add {
		if got, want := s.Add(g.Nodes[id]), i != 5; got != want {
			t.Errorf("Add(#%d) = %v, want %v", id, got, want)
		}
	}
	if s.Len() != 5 || !s.Has(g.Nodes[63]) || s.Has(g.Nodes[65]) {
		t.Fatalf("after adds: len %d, has #63 %v, has #65 %v", s.Len(), s.Has(g.Nodes[63]), s.Has(g.Nodes[65]))
	}
	s.Remove(g.Nodes[3])
	var got []int
	for n := range s.All() {
		got = append(got, n.ID)
	}
	if want := []int{0, 63, 64, 129}; !slices.Equal(got, want) {
		t.Errorf("All yields %v, want %v", got, want)
	}
	for n := range s.All() {
		if n.ID > 63 {
			t.Errorf("iteration went on past a false yield: #%d", n.ID)
		}
		if n.ID == 63 {
			break
		}
	}
}
