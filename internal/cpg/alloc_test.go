package cpg_test

import (
	"runtime"
	"testing"

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

// Ceilings for one cpg.Parse of allocContract (112 nodes), set just above
// what the kind-keyed edge lists measure: 1 968 allocations and 120 KB with
// Go 1.24 on linux/amd64. The fixed per-node arrays of all 23 edge kinds
// they replaced made fewer, larger objects: 1 677 allocations, 282 KB.
const (
	maxParseAllocs = 2000
	maxParseBytes  = 123 << 10
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
