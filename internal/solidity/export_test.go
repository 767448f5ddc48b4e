package solidity

// ParseOn is Parse building on the arena of used, released without passing
// through the pool so that the arena is known to be recycled. A nil used
// builds on a fresh arena.
func ParseOn(used *SourceUnit, src string) (*SourceUnit, error) {
	a := new(arena)
	if used != nil {
		a, _ = used.detach()
	}
	return parseOn(a, src, Options{Fuzzy: true})
}

// EveryNode touches every kind of node and list the arena holds: pragmas,
// imports, each declaration, type, statement and expression kind, named
// call arguments, call options, tuples and catch clauses.
const EveryNode = `pragma solidity >=0.6.0 <0.9.0;
import "./Lib.sol";
library L { function id(uint a) internal pure returns (uint) { return a; } }
abstract contract C is Base(1), Other {
	using L for uint;
	enum State { Open, Closed }
	struct Holder { address who; uint amount; }
	event Paid(address indexed to, uint value) anonymous;
	mapping(address => uint[]) balances;
	function setHook(function (uint) external returns (bool) hook) internal {}
	uint public constant LIMIT = 10 ether;
	modifier onlyOwner(address o) { require(msg.sender == o, "owner"); _; }
	constructor() payable {}
	receive() external payable {}
	function f(uint a, Holder memory h) public onlyOwner(msg.sender) returns (uint, bool) {
		(uint x, , bool ok) = (a, 0, !true);
		var (p, q) = g({b: 2, a: 1});
		for (uint i = 0; i < a; i++) { if (i % 2 == 0) continue; else break; }
		while (x > 0) { x -= 1; }
		do { x++; } while (x < 3);
		try this.g{gas: 5000}(1, 2) returns (uint v) { x = v; } catch Error(string memory r) { revert(r); } catch { throw; }
		unchecked { x = x ** 2 >> 1; }
		assembly { let y := mload(0x40) }
		delete balances[h.who];
		emit Paid(payable(h.who), x > 1 ? x : 1);
		uint[] memory xs = new uint[](3);
		bytes memory b = hex"00ff";
		return ([1, 2][0] + xs.length + L.id(a) - uint(-1), ok && bool(b.length > 0));
	}
}`
