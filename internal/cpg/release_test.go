package cpg_test

import (
	"testing"

	"repro/internal/cpg"
)

// releaseSnippet is smaller than allocContract and shaped differently, so an
// arena recycled between the two holds stale nodes and lists past what the
// next graph uses.
const releaseSnippet = `balances[msg.sender] += msg.value;
require(balances[msg.sender] >= amount);
msg.sender.call{value: amount}("");
balances[msg.sender] -= amount;`

// TestReleaseRecyclesArena builds A, recycles its arena for B and B's for A
// again: every graph dumps as it does on a fresh arena. Released graphs are
// empty, and releasing one twice is a no-op.
func TestReleaseRecyclesArena(t *testing.T) {
	freshA, _ := cpg.ParseOn(nil, allocContract)
	wantA := dump(freshA)
	freshB, _ := cpg.ParseOn(nil, releaseSnippet)
	wantB := dump(freshB)

	b, _ := cpg.ParseOn(freshA, releaseSnippet)
	if got := dump(b); got != wantB {
		t.Errorf("B on A's recycled arena:\n%s\nwant:\n%s", got, wantB)
	}
	a, _ := cpg.ParseOn(b, allocContract)
	if got := dump(a); got != wantA {
		t.Errorf("A on B's recycled arena:\n%s\nwant:\n%s", got, wantA)
	}
	for _, g := range []*cpg.Graph{freshA, b} {
		if len(g.Nodes) != 0 || g.Root != nil || len(g.ByLabel(cpg.LCallExpression)) != 0 {
			t.Errorf("a released graph still holds %d nodes", len(g.Nodes))
		}
	}

	// Through the pool, releasing twice: the second release must not hand
	// the arena out again while the first's new owner builds on it.
	a.Release()
	a.Release()
	g1, _ := cpg.Parse(releaseSnippet)
	g2, _ := cpg.Parse(allocContract)
	if dump(g1) != wantB || dump(g2) != wantA {
		t.Error("graphs built after a double release differ from fresh ones")
	}
	g1.Release()
	g2.Release()
}

// FuzzParseRelease: whatever the source, a graph built on a recycled arena
// dumps exactly as one built on a fresh arena, and the arena it leaves
// behind builds the next graph exactly too. Committed seeds live in
// testdata/fuzz/FuzzParseRelease.
func FuzzParseRelease(f *testing.F) {
	f.Add(allocContract)
	f.Add(releaseSnippet)
	f.Add("")
	fresh, _ := cpg.ParseOn(nil, allocContract)
	wantOther := dump(fresh)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		g, _ := cpg.ParseOn(nil, src)
		want := dump(g)
		other, _ := cpg.ParseOn(g, allocContract)
		if got := dump(other); got != wantOther {
			t.Fatalf("fixed contract on the arena of %q:\n%s\nwant:\n%s", src, got, wantOther)
		}
		again, _ := cpg.ParseOn(other, src)
		if got := dump(again); got != want {
			t.Fatalf("%q on a recycled arena:\n%s\nwant:\n%s", src, got, want)
		}
	})
}
