package cpg_test

import (
	"runtime"
	"testing"

	"repro/internal/ccc"
	"repro/internal/cpg"
)

// allocContract is a complete contract touching every graph layer: fields,
// a modifier, a resolved internal call, a loop, a require with its Rollback,
// a low-level call with a {value: ...} option and a state write after it.
const allocContract = `pragma solidity ^0.8.0;

contract Bank {
	mapping(address => uint) balances;
	address owner;
	address[] payees;

	modifier onlyOwner() { require(msg.sender == owner); _; }

	constructor() { owner = msg.sender; }

	function deposit() public payable { balances[msg.sender] += msg.value; }

	function withdraw(uint amount) public {
		require(balances[msg.sender] >= amount);
		(bool ok, ) = msg.sender.call{value: amount}("");
		balances[msg.sender] = sub(balances[msg.sender], amount);
	}

	function payAll(uint share) public onlyOwner {
		for (uint i = 0; i < payees.length; i++) {
			if (share > 0) { payable(payees[i]).transfer(share); }
		}
	}

	function sub(uint a, uint b) internal pure returns (uint) {
		assert(b <= a);
		return a - b;
	}
}
`

// Ceilings for one cpg.Parse of allocContract (112 nodes) whose graph is
// never released, so each parse starts a fresh graph arena whose chunks grow
// by doubling; the syntax tree is released and recycled inside Parse: 318
// allocations and 131 KB with Go 1.24 on linux/amd64 (up to 354 and 147 KB
// under -race).
const (
	maxParseAllocs = 375
	maxParseBytes  = 156 << 10
)

// TestParseAllocs pins the allocation count and bytes of building one
// graph, tokens and syntax tree included.
func TestParseAllocs(t *testing.T) {
	if _, err := cpg.Parse(allocContract); err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() { _, _ = cpg.Parse(allocContract) })

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = cpg.Parse(allocContract)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs

	t.Logf("cpg.Parse: %.0f allocs, %d bytes", allocs, bytes)
	if allocs > maxParseAllocs {
		t.Errorf("cpg.Parse: %.0f allocs/op, want <= %d", allocs, maxParseAllocs)
	}
	if bytes > maxParseBytes {
		t.Errorf("cpg.Parse: %d bytes/op, want <= %d", bytes, maxParseBytes)
	}
}

// maxSteadyAllocs caps one Parse, Analyze and Release of allocContract once
// the pools are warm, set above the 429 measured with Go 1.24 on
// linux/amd64 (up to 471 under -race, whose pools drop a quarter of what
// they are given). The builder's maps and the analysis allocate; the
// tokens, syntax tree, nodes and edge lists come from the pools.
const maxSteadyAllocs = 490

// TestSteadyStateAllocs pins the allocations of the serving analyze path in
// a loop, where every graph's arena and token buffer serve the next one.
func TestSteadyStateAllocs(t *testing.T) {
	analyze := func() {
		g, _ := cpg.Parse(allocContract)
		ccc.Analyze(g)
		g.Release()
	}
	analyze()
	allocs := testing.AllocsPerRun(200, analyze)
	t.Logf("Parse + Analyze + Release: %.0f allocs", allocs)
	if allocs > maxSteadyAllocs {
		t.Errorf("Parse + Analyze + Release: %.0f allocs/op, want <= %d", allocs, maxSteadyAllocs)
	}
}
