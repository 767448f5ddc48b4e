package solidity_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/solidity"
)

// treeDump renders a tree the way FuzzTreeRelease compares trees: its
// printed form, then every node's type and span.
func treeDump(u *solidity.SourceUnit) string {
	var sb strings.Builder
	sb.WriteString(solidity.Print(u))
	solidity.Walk(u, func(n solidity.Node) bool {
		fmt.Fprintf(&sb, "\n%T %v-%v", n, n.Pos(), n.End())
		return true
	})
	return sb.String()
}

// FuzzTreeRelease: whatever the source, a tree built on a recycled arena
// dumps exactly as one built on a fresh arena, and the arena it leaves
// behind builds the next tree exactly too. Committed seeds live in
// testdata/fuzz/FuzzTreeRelease.
func FuzzTreeRelease(f *testing.F) {
	f.Add(solidity.EveryNode)
	f.Add("")
	fresh, _ := solidity.ParseOn(nil, solidity.EveryNode)
	wantOther := treeDump(fresh)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		u, _ := solidity.ParseOn(nil, src)
		want := treeDump(u)
		other, _ := solidity.ParseOn(u, solidity.EveryNode)
		if got := treeDump(other); got != wantOther {
			t.Fatalf("fixed source on the arena of %q:\n%s\nwant:\n%s", src, got, wantOther)
		}
		again, _ := solidity.ParseOn(other, src)
		if got := treeDump(again); got != want {
			t.Fatalf("%q on a recycled arena:\n%s\nwant:\n%s", src, got, want)
		}
	})
}

// TestReleaseEmptiesUnit: a released unit holds nothing, releasing it
// again is a no-op, and so is releasing a unit Parse did not return, such
// as the wrapper Infer builds around a snippet's orphans.
func TestReleaseEmptiesUnit(t *testing.T) {
	const snippet = "function f() public { x = 1; }\ny = 2"
	u, _ := solidity.Parse(snippet)
	want := treeDump(u)
	solidity.Infer(u).Release()
	if got := treeDump(u); got != want {
		t.Fatalf("releasing the inferred wrapper changed the tree:\n%s\nwant:\n%s", got, want)
	}
	u.Release()
	u.Release()
	if len(u.Decls) != 0 || len(u.Pragmas) != 0 || len(u.Imports) != 0 {
		t.Errorf("a released unit still holds %d decls", len(u.Decls))
	}
}

// TestConcurrentParseRelease parses and releases trees of different shapes
// from several goroutines at once, through the pool: every tree dumps as
// one built alone. Run it under -race.
func TestConcurrentParseRelease(t *testing.T) {
	srcs := []string{
		solidity.EveryNode,
		"",
		"function withdraw() public {\n  ...\n  msg.sender.transfer(amount)\n  balances[msg.sender] = 0\n}",
		"x = msg.sender.call{value: 1}(\"\")\nrequire(x)",
		"contract { function ( { if (x { y = ; } } } ] ) hex\"zz",
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		u, _ := solidity.ParseOn(nil, src)
		want[i] = treeDump(u)
	}
	const goroutines, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(srcs)
				u, _ := solidity.Parse(srcs[i])
				if got := treeDump(u); got != want[i] {
					t.Errorf("source %d parsed concurrently:\n%s\nwant:\n%s", i, got, want[i])
				}
				u.Release()
			}
		}(g)
	}
	wg.Wait()
}
