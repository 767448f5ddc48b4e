package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// batchComponents is the reference implementation: plain BFS connected
// components over the full edge set, computed from scratch.
func batchComponents(nodes []string, edges [][2]string) []Cluster {
	adj := make(map[string][]string)
	seen := make(map[string]bool)
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			adj[n] = nil
		}
	}
	for _, e := range edges {
		for _, n := range []string{e[0], e[1]} {
			if !seen[n] {
				seen[n] = true
			}
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	visited := make(map[string]bool)
	var out []Cluster
	ids := make([]string, 0, len(seen))
	for n := range seen {
		ids = append(ids, n)
	}
	sort.Strings(ids)
	for _, start := range ids {
		if visited[start] {
			continue
		}
		comp := []string{}
		queue := []string{start}
		visited[start] = true
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			comp = append(comp, n)
			for _, m := range adj[n] {
				if !visited[m] {
					visited[m] = true
					queue = append(queue, m)
				}
			}
		}
		sort.Strings(comp)
		out = append(out, Cluster{Rep: comp[0], Size: len(comp), Members: comp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Rep < out[j].Rep
	})
	return out
}

// randomEdges builds a deterministic node/edge set with chains, stars and
// isolated nodes so components of many shapes and sizes occur.
func randomEdges(seed int64, nodes, edges int) ([]string, [][2]string) {
	rng := rand.New(rand.NewSource(seed))
	ns := make([]string, nodes)
	for i := range ns {
		ns[i] = fmt.Sprintf("doc-%04d", i)
	}
	es := make([][2]string, edges)
	for i := range es {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes)
		if rng.Intn(4) == 0 {
			b = (a + 1) % nodes // chain-ish edges force deep trees
		}
		es[i] = [2]string{ns[a], ns[b]}
	}
	return ns, es
}

// TestIncrementalEqualsBatch is the package property: feeding edges one at a
// time into the union-find yields exactly the partition batch connected
// components computes on the same edge set — any arrival order, self-loops
// and duplicate edges included.
func TestIncrementalEqualsBatch(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		nodes, edges := randomEdges(seed, 120, int(seed)*37)
		want := batchComponents(nodes, edges)

		s := New()
		for _, n := range nodes {
			s.Add(n)
		}
		// Shuffled arrival order: the result must not depend on it.
		rng := rand.New(rand.NewSource(seed + 100))
		perm := rng.Perm(len(edges))
		for _, i := range perm {
			s.Union(edges[i][0], edges[i][1])
		}

		got := s.Clusters(1, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: incremental partition differs from batch CC\n got %v\nwant %v", seed, got, want)
		}

		// Summary agrees with the materialized clusters.
		sum := s.Summary()
		if sum.Docs != len(nodes) {
			t.Fatalf("seed %d: docs %d, want %d", seed, sum.Docs, len(nodes))
		}
		clusters, clustered, largest, singles := 0, 0, 0, 0
		sizes := map[int]int{}
		for _, c := range want {
			sizes[c.Size]++
			if c.Size >= 2 {
				clusters++
				clustered += c.Size
			} else {
				singles++
			}
			if c.Size > largest {
				largest = c.Size
			}
		}
		if sum.Clusters != clusters || sum.Clustered != clustered ||
			sum.Largest != largest || sum.Singletons != singles {
			t.Fatalf("seed %d: summary %+v disagrees with batch (clusters=%d clustered=%d largest=%d singles=%d)",
				seed, sum, clusters, clustered, largest, singles)
		}
		if !reflect.DeepEqual(sum.Sizes, sizes) {
			t.Fatalf("seed %d: histogram %v, want %v", seed, sum.Sizes, sizes)
		}
		if comps := len(s.Clusters(1, false)); sum.Clusters+sum.Singletons != comps {
			t.Fatalf("seed %d: component count %d != clusters %d + singletons %d",
				seed, comps, sum.Clusters, sum.Singletons)
		}
	}
}

// repOf returns the representative of id's component and whether id is
// tracked, read from the materialized clusters.
func repOf(s *Set, id string) (string, bool) {
	for _, c := range s.Clusters(1, true) {
		for _, m := range c.Members {
			if m == id {
				return c.Rep, true
			}
		}
	}
	return "", false
}

// same reports whether a and b are tracked and in one component.
func same(s *Set, a, b string) bool {
	ra, aok := repOf(s, a)
	rb, bok := repOf(s, b)
	return aok && bok && ra == rb
}

func TestUnionBasics(t *testing.T) {
	s := New()
	if !s.Union("a", "b") {
		t.Fatal("first union did not merge")
	}
	if s.Union("a", "b") || s.Union("b", "a") {
		t.Fatal("repeated edge reported a merge")
	}
	if s.Union("a", "a") {
		t.Fatal("self-loop reported a merge")
	}
	s.Add("c")
	if same(s, "a", "c") {
		t.Fatal("isolated node joined a cluster")
	}
	if !same(s, "a", "b") {
		t.Fatal("a and b not clustered")
	}
	if rep, ok := repOf(s, "b"); !ok || rep == "" {
		t.Fatalf("rep of b = %q, %v", rep, ok)
	}
	if _, ok := repOf(s, "zzz"); ok {
		t.Fatal("an untracked id has a cluster")
	}
	// Every merge joins two components, so merges = docs - components.
	if comps := len(s.Clusters(1, false)); s.Len() != 3 || comps != 2 || s.Len()-comps != 1 {
		t.Fatalf("len=%d components=%d merges=%d, want 3/2/1", s.Len(), comps, s.Len()-comps)
	}
	cs := s.Clusters(2, true)
	if len(cs) != 1 || cs[0].Rep != "a" || !reflect.DeepEqual(cs[0].Members, []string{"a", "b"}) {
		t.Fatalf("clusters %v", cs)
	}
	if sum := s.Summary(); sum.CloneRatio != 2.0/3.0 {
		t.Fatalf("clone ratio %v, want 2/3", sum.CloneRatio)
	}
}

// TestConcurrentUnions: racing unions over overlapping components settle to
// the same partition as the serial run (run with -race in CI).
func TestConcurrentUnions(t *testing.T) {
	nodes, edges := randomEdges(42, 200, 400)
	want := batchComponents(nodes, edges)

	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 4 {
				s.Union(edges[i][0], edges[i][1])
			}
			for i := w; i < len(nodes); i += 4 {
				s.Add(nodes[i])
			}
		}(w)
	}
	wg.Wait()
	if got := s.Clusters(1, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent partition differs from batch CC")
	}
}

// TestClustersDuringIngest: materializing the member-list export while
// unions land must neither race (the forest is snapshotted, not walked live
// under the ingest lock) nor return an internally inconsistent view — every
// snapshot's member lists exactly cover the documents it saw.
func TestClustersDuringIngest(t *testing.T) {
	nodes, edges := randomEdges(7, 300, 500)
	want := batchComponents(nodes, edges)

	s := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range nodes {
			s.Add(n)
		}
		for _, e := range edges {
			s.Union(e[0], e[1])
		}
	}()
	for i := 0; ; i++ {
		cs := s.Clusters(1, true)
		members := 0
		for _, c := range cs {
			if len(c.Members) != c.Size {
				t.Fatalf("snapshot %d: cluster %q has %d members, size %d", i, c.Rep, len(c.Members), c.Size)
			}
			if c.Rep != c.Members[0] {
				t.Fatalf("snapshot %d: rep %q is not the smallest member %q", i, c.Rep, c.Members[0])
			}
			members += c.Size
		}
		// Docs only grows, so a snapshot can never hold more members than a
		// later summary reports documents.
		if sum := s.Summary(); members > sum.Docs {
			t.Fatalf("snapshot %d: %d members across clusters, beyond %d docs", i, members, sum.Docs)
		}
		select {
		case <-done:
			if got := s.Clusters(1, true); !reflect.DeepEqual(got, want) {
				t.Fatal("final partition differs from batch CC")
			}
			return
		default:
		}
	}
}
