package cluster

import (
	"reflect"
	"testing"
)

// FuzzClusterMerge drives the union-find with an arbitrary byte-encoded edge
// script over a small id space and checks it against batch connected
// components on the same edge set, plus the internal invariants (component
// count, size bookkeeping, summary consistency). Two bytes per edge; an odd
// trailing byte becomes an Add.
func FuzzClusterMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 2, 3, 3, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 9})
	f.Add([]byte{255, 0, 254, 1, 253, 2, 252, 3, 251})
	f.Add([]byte{5, 6, 7, 8, 5, 8, 6, 7, 9, 9, 10})
	f.Fuzz(func(t *testing.T, script []byte) {
		id := func(b byte) string {
			// 32 distinct ids so merges and repeats are frequent.
			return string(rune('a'+b%26)) + string(rune('0'+b%32/26))
		}
		s := New()
		var nodes []string
		var edges [][2]string
		for i := 0; i+1 < len(script); i += 2 {
			a, b := id(script[i]), id(script[i+1])
			merged := s.Union(a, b)
			if merged && a == b {
				t.Fatalf("self-loop %q reported a merge", a)
			}
			edges = append(edges, [2]string{a, b})
		}
		if len(script)%2 == 1 {
			n := id(script[len(script)-1])
			s.Add(n)
			nodes = append(nodes, n)
		}

		want := batchComponents(nodes, edges)
		got := s.Clusters(1, true)
		if len(want) == 0 {
			want = nil
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition differs from batch CC\n got %v\nwant %v", got, want)
		}

		sum := s.Summary()
		if sum.Docs != s.Len() {
			t.Fatalf("summary docs %d != len %d", sum.Docs, s.Len())
		}
		if comps := len(s.Clusters(1, false)); sum.Clusters+sum.Singletons != comps {
			t.Fatalf("clusters %d + singletons %d != count %d", sum.Clusters, sum.Singletons, comps)
		}
		total := 0
		for sz, n := range sum.Sizes {
			if sz < 1 || n < 1 {
				t.Fatalf("bad histogram bucket %d:%d", sz, n)
			}
			total += sz * n
		}
		if total != sum.Docs {
			t.Fatalf("histogram covers %d docs, want %d", total, sum.Docs)
		}
		// Every member resolves to its cluster's root: the members grouped
		// under one root are as many as the root's size counter says, and
		// the representative is one of them.
		for _, c := range got {
			if len(c.Members) != c.Size || c.Members[0] != c.Rep {
				t.Fatalf("cluster %q of size %d has members %v", c.Rep, c.Size, c.Members)
			}
		}
	})
}
