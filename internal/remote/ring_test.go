package remote

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("ring not deterministic for %q: %d vs %d", id, a.Owner(id), b.Owner(id))
		}
	}
}

func TestRingCoversAllPartitions(t *testing.T) {
	r := NewRing(8)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		p := r.Owner(fmt.Sprintf("doc-%d", i))
		if p < 0 || p >= 8 {
			t.Fatalf("owner %d out of range", p)
		}
		seen[p]++
	}
	for p := 0; p < 8; p++ {
		if seen[p] == 0 {
			t.Errorf("partition %d owns nothing", p)
		}
	}
}

// TestRingJoinMovesFraction pins the consistent-hash property the replica
// story relies on: adding one node moves roughly 1/(N+1) of the keys, not a
// full reshuffle like mod-N hashing would.
func TestRingJoinMovesFraction(t *testing.T) {
	const keys = 20000
	before, after := NewRing(4), NewRing(5)
	moved := 0
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if before.Owner(id) != after.Owner(id) {
			moved++
		}
	}
	frac := float64(moved) / keys
	// Ideal is 1/5 = 0.20; vnode placement wobbles, so accept a wide band
	// that still rules out mod-N's ~0.8 reshuffle.
	if frac < 0.05 || frac > 0.45 {
		t.Fatalf("join moved %.1f%% of keys; want a consistent-hash fraction near 20%%", frac*100)
	}
}

func TestRingClampsDegenerateInputs(t *testing.T) {
	r := NewRing(0)
	if len(r.points) != defaultVnodes {
		t.Fatalf("%d ring points, want one partition's %d (clamp to 1)", len(r.points), defaultVnodes)
	}
	if got := r.Owner("anything"); got != 0 {
		t.Fatalf("single-node ring owner = %d, want 0", got)
	}
}

// TestRingBalance pins the load spread the splitmix64 finalizer buys: raw
// FNV-1a vnode labels clustered badly enough to hand one of two nodes ~70%
// of the keyspace. Every partition must stay within 2x of fair share.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		r := NewRing(n)
		seen := make([]int, n)
		const keys = 20000
		for i := 0; i < keys; i++ {
			seen[r.Owner(fmt.Sprintf("doc-%d", i))]++
		}
		fair := keys / n
		for p, c := range seen {
			if c < fair/2 || c > fair*2 {
				t.Errorf("n=%d partition %d owns %d keys (fair share %d): spread %v", n, p, c, fair, seen)
			}
		}
	}
}
