// Package baseline implements simplified stand-ins for the comparison tools
// of the paper's evaluation: eight vulnerability analyzers (Confuzzius,
// Conkas, Mythril, Osiris, Oyente, Securify, Slither, SmartCheck) and the
// SmartEmbed structural clone detector.
//
// Each analyzer is an independent, purely syntactic line-level detector with
// its own category coverage and bias, reproducing the qualitative trade-offs
// of Table 1 (e.g. Conkas finds many reentrancy instances but floods false
// positives; SmartCheck is precise but narrow). Crucially, all of them
// require complete, compilable code: they refuse the non-compilable snippets
// that CCC is designed to handle — the paper's core motivation.
package baseline

import (
	"errors"
	"strings"

	"repro/internal/ccc"
	"repro/internal/solidity"
)

// ErrNotCompilable is returned when a tool is given incomplete code.
var ErrNotCompilable = errors.New("baseline: input is not compilable")

// Finding is one reported issue.
type Finding struct {
	Category ccc.Category
	Line     int
}

// Tool is a vulnerability analyzer.
type Tool interface {
	Name() string
	// Analyze returns findings, or ErrNotCompilable for snippet input.
	Analyze(src string) ([]Finding, error)
}

// Tools returns the eight comparator analyzers in Table 1 order.
func Tools() []Tool {
	return []Tool{
		confuzzius{}, conkas{}, mythril{}, osiris{}, oyente{},
		securify{}, slither{}, smartcheck{},
	}
}

// requireCompilable rejects input the standard grammar cannot parse.
func requireCompilable(src string) error {
	if _, err := solidity.ParseStrict(src); err != nil {
		return ErrNotCompilable
	}
	return nil
}

// --- shared line heuristics -----------------------------------------------

type lines []string

func splitSource(src string) lines {
	return lines(strings.Split(solidity.StripComments(src), "\n"))
}

// match returns the 1-based lines containing any of the needles.
func (ls lines) match(needles ...string) []int {
	var out []int
	for i, l := range ls {
		for _, n := range needles {
			if strings.Contains(l, n) {
				out = append(out, i+1)
				break
			}
		}
	}
	return out
}

// guardedBefore reports whether a line within dist before idx (1-based)
// contains the needle.
func (ls lines) guardedBefore(idx, dist int, needle string) bool {
	for i := idx - 2; i >= 0 && i >= idx-1-dist; i-- {
		if strings.Contains(ls[i], needle) {
			return true
		}
	}
	return false
}

// anyAfter reports whether any line strictly after idx contains a needle.
func (ls lines) anyAfter(idx int, needles ...string) bool {
	for i := idx; i < len(ls); i++ {
		for _, n := range needles {
			if strings.Contains(ls[i], n) {
				return true
			}
		}
	}
	return false
}

func isExternalSendLine(l string) bool {
	return strings.Contains(l, ".call{value") || strings.Contains(l, ".call.value") ||
		strings.Contains(l, ".call(") || strings.Contains(l, ".send(") ||
		strings.Contains(l, ".transfer(")
}

func isGasForwardingLine(l string) bool {
	return strings.Contains(l, ".call{value") || strings.Contains(l, ".call.value") ||
		strings.Contains(l, ".call(") || strings.Contains(l, "{value:")
}

func isStateWriteLine(l string) bool {
	t := strings.TrimSpace(l)
	if strings.Contains(t, "==") || strings.Contains(t, ">=") || strings.Contains(t, "<=") ||
		strings.Contains(t, "!=") {
		return false
	}
	return strings.Contains(t, "-=") || strings.Contains(t, "+=") ||
		(strings.Contains(t, "= ") && strings.HasSuffix(t, ";"))
}

// reentrancyFindings detects external-call-then-state-write. Aggressiveness:
//
//	0: gas-forwarding calls only, write required after the call
//	1: also send/external member calls (more FPs on mitigated code)
//	2: any external send regardless of a later write (floods FPs)
func reentrancyFindings(ls lines, level int) []int {
	var out []int
	for i, l := range ls {
		external := false
		switch level {
		case 0:
			external = isGasForwardingLine(l)
		case 1:
			external = isGasForwardingLine(l) || strings.Contains(l, ".send(")
		default:
			external = isExternalSendLine(l)
		}
		if !external {
			continue
		}
		if level >= 2 {
			out = append(out, i+1)
			continue
		}
		wrote := false
		for j := i + 1; j < len(ls) && j < i+8; j++ {
			if isStateWriteLine(ls[j]) {
				wrote = true
				break
			}
			if strings.Contains(ls[j], "}") && strings.Contains(ls[j], "function") {
				break
			}
		}
		if wrote {
			out = append(out, i+1)
		}
	}
	return out
}

// arithmeticFindings flags additive/multiplicative updates without a nearby
// bounds check. When safeMathAware, lines inside require/helper guards are
// skipped more carefully.
func arithmeticFindings(ls lines, includeShift bool) []int {
	var out []int
	for i, l := range ls {
		hit := strings.Contains(l, "-=") || strings.Contains(l, "+=") ||
			(strings.Contains(l, "*") && strings.Contains(l, "=") && !strings.Contains(l, "=="))
		if includeShift && strings.Contains(l, "<<") {
			hit = true
		}
		if !hit {
			continue
		}
		if strings.Contains(l, "require(") || ls.guardedBefore(i+1, 3, "require(") {
			continue
		}
		out = append(out, i+1)
	}
	return out
}

// uncheckedFindings flags low-level calls whose result is not consumed.
func uncheckedFindings(ls lines, includeCall bool) []int {
	var out []int
	for i, l := range ls {
		t := strings.TrimSpace(l)
		low := strings.Contains(t, ".send(")
		if includeCall {
			low = low || strings.Contains(t, ".call(") || strings.Contains(t, ".call{")
		}
		if !low {
			continue
		}
		checked := strings.Contains(t, "require(") || strings.Contains(t, "assert(") ||
			strings.Contains(t, "if") || strings.Contains(t, "=") || strings.Contains(t, "return")
		if !checked {
			out = append(out, i+1)
		}
	}
	return out
}

func timestampFindings(ls lines, aggressive bool) []int {
	needles := []string{"now ", "now)", "now%", "now %", "block.timestamp"}
	var out []int
	for i, l := range ls {
		hit := false
		for _, n := range needles {
			if strings.Contains(l, n) {
				hit = true
			}
		}
		if !hit {
			continue
		}
		if !aggressive && !strings.Contains(l, "if") && !strings.Contains(l, "require") {
			continue
		}
		out = append(out, i+1)
	}
	return out
}

func randomnessFindings(ls lines, aggressive bool) []int {
	var out []int
	for i, l := range ls {
		strong := strings.Contains(l, "blockhash(") || strings.Contains(l, "block.difficulty") ||
			strings.Contains(l, "block.coinbase")
		weak := strings.Contains(l, "block.number")
		if strong || (aggressive && weak) {
			out = append(out, i+1)
		}
	}
	return out
}

func selfdestructFindings(ls lines) []int {
	var out []int
	for i, l := range ls {
		if !strings.Contains(l, "selfdestruct(") && !strings.Contains(l, "suicide(") {
			continue
		}
		if ls.guardedBefore(i+1, 3, "require(msg.sender") || strings.Contains(l, "onlyOwner") ||
			ls.guardedBefore(i+1, 3, "onlyOwner") {
			continue
		}
		out = append(out, i+1)
	}
	return out
}

func txOriginFindings(ls lines) []int {
	var out []int
	for i, l := range ls {
		if strings.Contains(l, "tx.origin") && !strings.Contains(l, "msg.sender") {
			out = append(out, i+1)
		}
	}
	return out
}

func dosLoopTransferFindings(ls lines) []int {
	var out []int
	inLoop := 0
	for i, l := range ls {
		if strings.Contains(l, "for (") || strings.Contains(l, "for(") ||
			strings.Contains(l, "while (") || strings.Contains(l, "while(") {
			inLoop = 6 // approximate loop extent
		}
		if inLoop > 0 {
			inLoop--
			if strings.Contains(l, ".transfer(") || strings.Contains(l, ".send(") {
				out = append(out, i+1)
			}
		}
		_ = i
	}
	return out
}

func frontRunFindings(ls lines) []int {
	var out []int
	for i, l := range ls {
		if strings.Contains(l, "msg.sender.transfer(") && ls.guardedBefore(i+1, 3, "require(") &&
			!ls.guardedBefore(i+1, 3, "require(msg.sender") {
			out = append(out, i+1)
		}
		if strings.Contains(l, "= msg.sender;") && ls.guardedBefore(i+1, 2, "require(") &&
			!ls.guardedBefore(i+1, 2, "require(msg.sender") {
			out = append(out, i+1)
		}
	}
	return out
}
