package dataset

import (
	"fmt"
	"math/rand"
	"strings"
)

// HoneypotType enumerates the nine honeypot techniques of Torres et al.
// (USENIX Security 2019), the labeled clone-detection benchmark of the
// paper's Table 3.
type HoneypotType string

// The nine honeypot types.
const (
	BalanceDisorder     HoneypotType = "Balance Disorder"
	TypeDeductionOvf    HoneypotType = "Type Deduction Overflow"
	HiddenTransfer      HoneypotType = "Hidden Transfer"
	UnexecutedCall      HoneypotType = "Unexecuted Call"
	UninitialisedStruct HoneypotType = "Uninitialised Struct"
	HiddenStateUpdate   HoneypotType = "Hidden State Update"
	InheritanceDisorder HoneypotType = "Inheritance Disorder"
	SkipEmptyString     HoneypotType = "Skip Empty String Literal"
	StrawManContract    HoneypotType = "Straw Man Contract"
)

// HoneypotTypes lists the types in the paper's Table 3 order.
var HoneypotTypes = []HoneypotType{
	BalanceDisorder, TypeDeductionOvf, HiddenTransfer, UnexecutedCall,
	UninitialisedStruct, HiddenStateUpdate, InheritanceDisorder,
	SkipEmptyString, StrawManContract,
}

// HoneypotContract is one labeled honeypot.
type HoneypotContract struct {
	ID     string
	Type   HoneypotType
	Source string
}

// honeypotTemplates holds the core technique per type; families are
// generated by mutating around the technique, as honeypot creators do
// ("keep reusing the same technique and only slightly modify the code").
var honeypotTemplates = map[HoneypotType]string{
	BalanceDisorder: `contract MultiplicatorX3 {
	address owner;
	uint multiplier = 3;
	constructor() { owner = msg.sender; }
	function multiplicate(address adr) public payable {
		playCount = playCount + 1;
		if (msg.value >= address(this).balance) {
			adr.transfer(address(this).balance + msg.value);
		}
	}
	uint playCount;
	function withdraw() public {
		require(msg.sender == owner);
		lastSweep = playCount * multiplier;
		msg.sender.transfer(address(this).balance);
	}
	uint lastSweep;
}`,
	TypeDeductionOvf: `contract ForGood {
	address owner;
	uint[] deposits;
	constructor() { owner = msg.sender; }
	function giveAway() public payable {
		for (var i = 0; i < deposits.length; i++) {
			msg.sender.transfer(deposits[i]);
		}
	}
	function put() public payable { deposits.push(msg.value); }
}`,
	HiddenTransfer: `contract TestBank {
	address owner;
	uint minDeposit = 1 ether;
	mapping(address => uint) bankBalance;
	constructor() { owner = msg.sender; }
	function deposit() public payable {
		require(msg.value > minDeposit);
		bankBalance[msg.sender] += msg.value;
		depositCount = depositCount + 1;
	}
	uint depositCount;
	function withdrawAll() public {
		uint payout = bankBalance[msg.sender];
		bankBalance[msg.sender] = 0;
		owner.transfer(address(this).balance);
		msg.sender.transfer(0 * payout);
	}
}`,
	UnexecutedCall: `contract DividendDistributor {
	address owner;
	uint dividend;
	constructor() { owner = msg.sender; }
	function loggedTransfer(uint amount, address target) public {
		if (msg.sender != address(this)) { throw; }
		target.call{value: amount}("");
	}
	function divest(uint amount) public {
		dividend = amount;
		this.loggedTransfer(amount, msg.sender);
	}
}
contract Logger {
	function logTransfer(address who, uint amount) public {}
}`,
	UninitialisedStruct: `contract GuessNumber {
	address owner;
	uint entryFee = 1 ether;
	uint roundNumber;
	struct Guess { address player; uint number; }
	constructor() { owner = msg.sender; }
	function guess(uint n) public payable {
		require(msg.value >= entryFee);
		Guess g;
		g.player = msg.sender;
		g.number = n;
		roundNumber = roundNumber + 1;
		lastGuess = n % 100;
		if (n == 42) { msg.sender.transfer(address(this).balance); }
	}
	uint lastGuess;
	function round() public returns (uint) {
		return roundNumber;
	}
}`,
	HiddenStateUpdate: `contract Gift_1_ETH {
	bool passHasBeenSet;
	bytes32 hashPass;
	constructor() {}
	function SetPass(bytes32 hash) public payable {
		if (!passHasBeenSet && msg.value > 1 ether) {
			hashPass = hash;
		}
	}
	function GetGift(bytes pass) public returns (uint) {
		if (hashPass == keccak256(pass)) {
			msg.sender.transfer(address(this).balance);
		}
		return 1;
	}
	function PassHasBeenSet(bytes32 hash) public {
		if (hash == hashPass) { passHasBeenSet = true; }
	}
}`,
	InheritanceDisorder: `contract Ownable {
	address owner;
	constructor() { owner = msg.sender; }
	modifier onlyOwner() { require(msg.sender == owner); _; }
}
contract KingOfTheHill is Ownable {
	address public king;
	uint public jackpot;
	address owner;
	function takeover() public payable {
		if (msg.value > jackpot) { king = msg.sender; }
		jackpot += msg.value;
	}
	function claim() public {
		require(msg.sender == owner);
		msg.sender.transfer(jackpot);
	}
}`,
	SkipEmptyString: `contract DepositProxy {
	address owner;
	mapping(address => uint) deposits;
	constructor() { owner = msg.sender; }
	function forward(address target, uint amount, string note) public {
		require(msg.sender == owner);
		target.call{value: amount}(note, "");
	}
	function deposit() public payable { deposits[msg.sender] += msg.value; }
}`,
	StrawManContract: `contract CashOut {
	address owner;
	Logger trustedLog;
	mapping(address => uint) balances;
	constructor(address logAddress) { owner = msg.sender; trustedLog = Logger(logAddress); }
	function cashout(uint amount) public {
		if (amount <= balances[msg.sender]) {
			msg.sender.call{value: amount}("");
			trustedLog.logTransfer(msg.sender, amount);
			balances[msg.sender] -= amount;
		}
	}
}
contract Logger {
	function logTransfer(address who, uint amount) public {}
}`,
}

// honeypotPlan controls family sizes and internal diversity: each type's
// family splits into sub-variants; within a sub-variant clones are near
// (Type I-II edits), across sub-variants they drift (several Type III
// edits), which produces the characteristically low recall of Table 3.
type honeypotPlan struct {
	typ         HoneypotType
	family      int // number of contracts
	subVariants int // diversity within the family
}

var honeypotPlans = []honeypotPlan{
	{BalanceDisorder, 25, 3},
	{TypeDeductionOvf, 8, 2},
	{HiddenTransfer, 20, 3},
	{UnexecutedCall, 8, 2},
	{UninitialisedStruct, 32, 3},
	{HiddenStateUpdate, 180, 8},
	{InheritanceDisorder, 35, 4},
	{SkipEmptyString, 9, 2},
	{StrawManContract, 62, 4},
}

// makeBoilerplate returns deposit/ownership boilerplate shared across
// honeypot types — the source of cross-type clone false positives. Each
// instantiation drifts slightly (honeypot authors copy and adjust).
func makeBoilerplate(rng *rand.Rand) string {
	a, b := rng.Intn(900)+1, rng.Intn(90)+1
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("\tfunction Deposit() public payable {\n\t\tmeter%d = meter%d + %d;\n\t\tif (msg.value >= 1 ether) { balance += msg.value; }\n\t}\n\tuint balance;\n", a, a, b)
	case 1:
		return fmt.Sprintf("\tfunction kill() public {\n\t\tgauge%d = %d;\n\t\trequire(msg.sender == owner);\n\t\tselfdestruct(owner);\n\t}\n", a, b)
	default:
		return fmt.Sprintf("\tfunction ownerAddress() public returns (address) {\n\t\tprobe%d = probe%d | %d;\n\t\treturn owner;\n\t}\n", a, a, b)
	}
}

// GenerateHoneypots builds the 379-contract honeypot benchmark (9 families).
func GenerateHoneypots(seed int64) []HoneypotContract {
	rng := rand.New(rand.NewSource(seed))
	m := NewMutator(seed + 1)
	var out []HoneypotContract
	for _, plan := range honeypotPlans {
		base := honeypotTemplates[plan.typ]
		// Pre-compute sub-variant bases: progressively drifted versions.
		// Sub-variants drift inside function bodies (unique inert
		// statements), which is what keeps recall realistic: the technique
		// is shared, the surrounding implementation is not.
		variants := make([]string, plan.subVariants)
		for v := range variants {
			src := base
			for range v + 1 { // structural drift grows with the variant index
				src = driftAllFunctions(rng, src, 1+v/3)
				src = m.AddFiller(src)
			}
			if v%2 == 1 {
				src = m.RenameType2(src)
			}
			variants[v] = src
		}
		for i := 0; i < plan.family; i++ {
			v := i % plan.subVariants
			src := m.Mutate(variants[v], rng.Intn(2)) // weak edits within a sub-variant
			if rng.Float64() < 0.8 {
				// Per-contract micro-drift: one inert statement.
				src = driftAllFunctions(rng, src, 1)
			}
			if rng.Float64() < 0.35 {
				bp := makeBoilerplate(rng)
				if j := strings.LastIndexByte(src, '}'); j > 0 {
					src = src[:j] + bp + src[j:]
				}
			}
			out = append(out, HoneypotContract{
				ID:     fmt.Sprintf("%s-%03d", slugHoney(plan.typ), i),
				Type:   plan.typ,
				Source: src,
			})
		}
	}
	return out
}

func slugHoney(t HoneypotType) string {
	return strings.ReplaceAll(strings.ToLower(string(t)), " ", "-")
}

// driftAllFunctions inserts n unique inert statements into every function
// body, so that sub-variants of a honeypot family differ across the whole
// implementation, not just in one spot.
func driftAllFunctions(rng *rand.Rand, src string, n int) string {
	lines := strings.Split(src, "\n")
	var out []string
	for _, l := range lines {
		out = append(out, l)
		t := strings.TrimSpace(l)
		isHeader := (strings.HasPrefix(t, "function") || strings.HasPrefix(t, "constructor")) &&
			strings.HasSuffix(t, "{")
		if !isHeader {
			continue
		}
		for i := 0; i < n; i++ {
			tag := rng.Intn(90000) + 10000
			switch rng.Intn(3) {
			case 0:
				out = append(out, fmt.Sprintf("\t\tgauge%d = gauge%d + %d;", tag, tag, rng.Intn(900)+1))
			case 1:
				out = append(out, fmt.Sprintf("\t\ttick%d = %d;", tag, rng.Intn(9000)+1))
			default:
				out = append(out, fmt.Sprintf("\t\tphase%d = phase%d | %d;", tag, tag, rng.Intn(250)+1))
			}
		}
	}
	return strings.Join(out, "\n")
}
