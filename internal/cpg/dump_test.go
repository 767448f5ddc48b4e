package cpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cpg"
	"repro/internal/dataset"
)

// dumpSources are the sources TestAnalyzeSourceGivesOneAnswer (internal/ccc)
// analyses: its two fixed snippets, then the generated Q&A pool at scale 0.11.
func dumpSources() []string {
	out := []string{
		`balances[msg.sender] += msg.value;
require(balances[msg.sender] >= weiToWithdraw);
msg.sender.call{value: weiToWithdraw}("");
balances[msg.sender] -= weiToWithdraw;`,

		`		emit Trace13437(65);
		slot89711 = 6968;
credit[receivr] += msg.value;
if (credit[msg.sender] >= units) {
			msg.sender.call{value: units}("");
			credit[msg.sender] -= units;
		}
require(credit[msg.sender] >= units);`,
	}
	for _, sn := range dataset.GenerateQA(dataset.QAConfig{Seed: 1, Scale: 0.11}).Snippets {
		out = append(out, sn.Source)
	}
	return out
}

// dumpGraph writes a canonical text form of g to h: per node in ID order its
// sorted labels, its fields, and for every edge kind the IDs at the other end
// of its outgoing and incoming edges, in stored order.
func dumpGraph(h io.Writer, g *cpg.Graph) {
	fmt.Fprintf(h, "root %d nodes %d\n", g.Root.ID, len(g.Nodes))
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "#%d %s code=%q local=%q op=%q value=%q kind=%q type=%q index=%d inferred=%t pos=%d:%d:%d\n",
			n.ID, strings.Join(n.Labels(), "|"), n.Code, n.LocalName, n.Operator, n.Value, n.Kind,
			n.TypeName, n.Index, n.Inferred, n.Pos.Offset, n.Pos.Line, n.Pos.Column)
		for _, k := range allKinds {
			if out := n.Out(k); len(out) > 0 {
				fmt.Fprintf(h, "  out %v %v\n", k, ids(out))
			}
			if in := n.In(k); len(in) > 0 {
				fmt.Fprintf(h, "  in %v %v\n", k, ids(in))
			}
		}
	}
}

// dump returns dumpGraph's text of g followed by the node IDs ByLabel lists
// for every label.
func dump(g *cpg.Graph) string {
	var sb strings.Builder
	dumpGraph(&sb, g)
	for l := cpg.LTranslationUnit; l <= cpg.LObjectType; l++ {
		fmt.Fprintf(&sb, "label %v %v\n", l, ids(g.ByLabel(l)))
	}
	return sb.String()
}

func ids(ns []*cpg.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// graphDumpSHA256 pins the graphs of every dumpSources source: any change to
// node numbering, labels, fields or edge order changes it.
const graphDumpSHA256 = "30fe544529e81ef275f92aea2b92f00fa665f49d67d3297e909bbb67476cb6e9"

// TestGraphDumpPinned builds the graph of every source the ccc determinism
// test analyses and hashes their canonical dumps. A change to the graph's
// layout must leave the graph itself, and so this hash, unchanged.
func TestGraphDumpPinned(t *testing.T) {
	h := sha256.New()
	srcs := dumpSources()
	for i, src := range srcs {
		g, _ := cpg.Parse(src)
		fmt.Fprintf(h, "source %d\n", i)
		dumpGraph(h, g)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != graphDumpSHA256 {
		t.Errorf("graph dump of %d sources: sha256 %s, want %s", len(srcs), got, graphDumpSHA256)
	}
}
