package remote

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVnodes is the number of virtual nodes each partition projects onto
// the ring. 128 points per node keeps the worst/best partition load ratio
// within a few percent for small clusters while the ring stays a few KB.
const defaultVnodes = 128

// Ring is a consistent-hash assignment of document ids to N partitions.
// It is deterministic in N alone — every router and every shard that knows
// the cluster size computes the identical ring with no coordination — and
// adding or removing one partition moves only ~1/(N+1) of the keyspace,
// unlike modulo hashing where nearly every key reshuffles.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	owner int
}

// NewRing returns the canonical ring for n partitions (n ≥ 1) with the
// default virtual-node count.
func NewRing(n int) *Ring {
	return NewRingWith(n, defaultVnodes)
}

// NewRingWith returns a ring for n partitions with vnodes virtual nodes
// each. Exposed for tests that want coarse rings; production callers use
// NewRing.
func NewRingWith(n, vnodes int) *Ring {
	if n < 1 {
		n = 1
	}
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{points: make([]ringPoint, 0, n*vnodes)}
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("node-%d#%d", node, v)),
				owner: node,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by owner so the ring stays
		// deterministic regardless of sort stability.
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// Owner returns the partition that owns id: the first ring point clockwise
// from the id's hash.
func (r *Ring) Owner(id string) int {
	h := hash64(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point lands on the first
	}
	return r.points[i].owner
}

// hash64 is FNV-1a over the string — stable across processes and Go
// versions, unlike maphash — run through a splitmix64 finalizer. Raw
// FNV-1a of short sequential labels ("node-0#1", "node-0#2", ...) lands
// in correlated clusters, which skewed two-node rings as far as 70/30;
// the finalizer's avalanche restores a uniform spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
