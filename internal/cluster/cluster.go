// Package cluster maintains clone clusters over the serving corpus: an
// incremental union-find (path compression + union by rank) keyed by corpus
// document id, fed by match edges at the clone threshold, with per-cluster
// statistics — size histogram, representative id, clone ratio — available at
// any point without a batch recomputation. It backs the corpus-wide clone
// study's connected-components phase (the Figure 6 pipeline behind the
// paper's Tables 4-8, run against the serving corpus instead of a throwaway
// one), whose last answer /v1/clusters serves.
package cluster

import (
	"sort"
	"sync"
)

// Set is a thread-safe incremental union-find over string document ids.
// Union and Add insert unseen ids on the fly; Summary and Clusters may run
// concurrently with them. The partition a Set converges to depends only
// on the edge set, not on the order edges arrive in — the property test pins
// it against batch connected components.
type Set struct {
	mu     sync.Mutex
	ids    map[string]int32 // id -> node index
	names  []string         // node index -> id
	parent []int32
	rank   []int8
	size   []int32 // component size, valid at roots
}

// New returns an empty cluster set.
func New() *Set {
	return &Set{ids: make(map[string]int32)}
}

// node interns id, creating a singleton component for unseen ids. Callers
// hold s.mu.
func (s *Set) node(id string) int32 {
	if n, ok := s.ids[id]; ok {
		return n
	}
	n := int32(len(s.names))
	s.ids[id] = n
	s.names = append(s.names, id)
	s.parent = append(s.parent, n)
	s.rank = append(s.rank, 0)
	s.size = append(s.size, 1)
	return n
}

// find returns the root of n with path compression. Callers hold s.mu.
func (s *Set) find(n int32) int32 {
	for s.parent[n] != n {
		s.parent[n] = s.parent[s.parent[n]] // halving
		n = s.parent[n]
	}
	return n
}

// Add ensures id is tracked (as a singleton until an edge arrives).
func (s *Set) Add(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.node(id)
}

// Union records a clone edge between a and b, inserting either id if unseen.
// It returns true when the edge merged two previously separate components.
func (s *Set) Union(a, b string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ra, rb := s.find(s.node(a)), s.find(s.node(b))
	if ra == rb {
		return false
	}
	if s.rank[ra] < s.rank[rb] {
		ra, rb = rb, ra
	} else if s.rank[ra] == s.rank[rb] {
		s.rank[ra]++
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
	return true
}

// Len returns the number of tracked documents.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.names)
}

// Summary is the point-in-time cluster statistics view: the paper's
// cluster-size distribution plus the clone ratio (fraction of documents with
// at least one clone).
type Summary struct {
	// Docs is the number of tracked documents.
	Docs int `json:"docs"`
	// Clusters counts components of size ≥ 2; Singletons the rest.
	Clusters   int `json:"clusters"`
	Singletons int `json:"singletons"`
	// Clustered is the number of documents in clusters of size ≥ 2.
	Clustered int `json:"clustered"`
	// CloneRatio is Clustered / Docs (0 when the set is empty).
	CloneRatio float64 `json:"clone_ratio"`
	// Largest is the size of the biggest cluster (0 when empty).
	Largest int `json:"largest"`
	// Sizes is the cluster-size histogram: size -> number of components of
	// that size, singletons included under key 1.
	Sizes map[int]int `json:"sizes"`
}

// Summary computes the current cluster statistics.
func (s *Set) Summary() Summary {
	// Same treatment as Clusters: snapshot the forest under the lock, count
	// outside it, so a /metrics scrape never stalls the ingest path's
	// Union/Add for an O(n) histogram pass.
	s.mu.Lock()
	parent := append([]int32(nil), s.parent...)
	size := append([]int32(nil), s.size...)
	s.mu.Unlock()

	sum := Summary{Docs: len(parent), Sizes: make(map[int]int)}
	for n := range parent {
		if parent[n] != int32(n) {
			continue
		}
		sz := int(size[n])
		sum.Sizes[sz]++
		if sz >= 2 {
			sum.Clusters++
			sum.Clustered += sz
		} else {
			sum.Singletons++
		}
		if sz > sum.Largest {
			sum.Largest = sz
		}
	}
	if sum.Docs > 0 {
		sum.CloneRatio = float64(sum.Clustered) / float64(sum.Docs)
	}
	return sum
}

// Cluster is one component in canonical form: the representative is the
// smallest member id, members sorted ascending.
type Cluster struct {
	Rep     string   `json:"rep"`
	Size    int      `json:"size"`
	Members []string `json:"members,omitempty"`
}

// Top returns the n largest clusters of two or more members, in Clusters'
// order and without member lists (n ≤ 0: none).
func (s *Set) Top(n int) []Cluster {
	if n <= 0 {
		return nil
	}
	top := s.Clusters(2, false)
	return top[:min(n, len(top))]
}

// Clusters returns every component of size ≥ minSize in deterministic order:
// size descending, then representative id ascending. withMembers controls
// whether the member lists are materialized (the NDJSON export wants them;
// the /v1/clusters summary does not).
func (s *Set) Clusters(minSize int, withMembers bool) []Cluster {
	if minSize < 1 {
		minSize = 1
	}
	// Snapshot the forest under the lock, materialize outside it: the
	// member-list export walks every member string of every document, and
	// holding s.mu for that would stall a running join's Union/Add calls
	// for the whole export on a large corpus. Sharing s.names is safe — the
	// prefix below len(names) is append-only and its elements immutable —
	// while parent and size are copied because find compresses paths and a
	// concurrent Union rewrites both.
	s.mu.Lock()
	names := s.names
	parent := append([]int32(nil), s.parent...)
	size := append([]int32(nil), s.size...)
	s.mu.Unlock()

	find := func(n int32) int32 {
		for parent[n] != n {
			parent[n] = parent[parent[n]] // halving
			n = parent[n]
		}
		return n
	}
	groups := make(map[int32]*Cluster)
	for n := range names {
		root := find(int32(n))
		if int(size[root]) < minSize {
			continue
		}
		g, ok := groups[root]
		if !ok {
			g = &Cluster{Rep: names[n], Size: int(size[root])}
			groups[root] = g
		}
		if names[n] < g.Rep {
			g.Rep = names[n]
		}
		if withMembers {
			g.Members = append(g.Members, names[n])
		}
	}
	out := make([]Cluster, 0, len(groups))
	for _, g := range groups {
		if withMembers {
			sort.Strings(g.Members)
		}
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Rep < out[j].Rep
	})
	return out
}
