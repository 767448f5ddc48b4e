package cpg

import "repro/internal/solidity"

// ParseOn is Parse building on the arena of used, released without passing
// through the pool so that the arena is known to be recycled. A nil used
// builds on a fresh arena.
func ParseOn(used *Graph, src string) (*Graph, error) {
	a := new(arena)
	if used != nil {
		a, _ = used.detach()
	}
	unit, err := solidity.Parse(src)
	return buildInto(newGraph(a), src, unit), err
}
