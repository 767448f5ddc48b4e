// Command gencorpus writes the synthetic corpora to disk for inspection or
// external tooling:
//
//	gencorpus -out ./corpora -scale 0.02
//
// It emits:
//
//	smartbugs/<category>/<file>.sol     labeled vulnerability benchmark
//	honeypots/<type>/<id>.sol           clone-detection benchmark
//	qa/<site>/<post>-<n>.sol|txt        Q&A snippets
//	sanctuary/<address>.sol             deployed contracts (with index.csv)
//
// With -snapshot it additionally fingerprints the deployed-contract corpora
// (sanctuary + honeypots) and writes a binary corpus snapshot that cmd/serve
// bulk-loads at boot — place it at <corpus-dir>/corpus.snap:
//
//	gencorpus -out "" -scale 0.1 -snapshot data/corpus.snap
//	serve -corpus-dir data
//
// Set -out "" to skip the source tree and emit the snapshot only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/service"
)

func main() {
	out := flag.String("out", "corpora", "output directory for source trees (empty = skip)")
	seed := flag.Int64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 0.02, "Q&A/sanctuary scale (1.0 = paper size)")
	snapshot := flag.String("snapshot", "", "also write a binary corpus snapshot (serve -corpus-dir format) to this file")
	snapN := flag.Int("ccd-n", ccd.DefaultConfig.N, "snapshot corpus n-gram size")
	snapEta := flag.Float64("ccd-eta", ccd.DefaultConfig.Eta, "snapshot corpus containment threshold")
	snapEps := flag.Float64("ccd-eps", ccd.DefaultConfig.Epsilon, "snapshot corpus similarity threshold (0-100)")
	snapShards := flag.Int("shards", 0, "snapshot corpus generation-shards (0 = GOMAXPROCS; restore re-shards on mismatch)")
	flag.Parse()

	die := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gencorpus: %v\n", err)
			os.Exit(1)
		}
	}
	if *out == "" && *snapshot == "" {
		die(fmt.Errorf("nothing to do: -out and -snapshot both empty"))
	}
	write := func(path, content string) {
		die(os.MkdirAll(filepath.Dir(path), 0o755))
		die(os.WriteFile(path, []byte(content), 0o644))
	}
	tree := *out != ""

	// SmartBugs-like benchmark.
	if tree {
		b := dataset.GenerateSmartBugs(*seed)
		for _, f := range b.Files {
			dir := strings.ReplaceAll(strings.ToLower(string(f.Category)), " ", "_")
			write(filepath.Join(*out, "smartbugs", dir, f.Name), f.Source)
		}
		fmt.Printf("smartbugs: %d files, %d labels\n", len(b.Files), b.Labels())
	}

	// Honeypots.
	hp := dataset.GenerateHoneypots(*seed)
	if tree {
		for _, h := range hp {
			dir := strings.ReplaceAll(strings.ToLower(string(h.Type)), " ", "-")
			write(filepath.Join(*out, "honeypots", dir, h.ID+".sol"), h.Source)
		}
	}
	fmt.Printf("honeypots: %d contracts\n", len(hp))

	// Q&A corpus.
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: *seed, Scale: *scale})
	if tree {
		for _, s := range qa.Snippets {
			ext := ".txt"
			if s.Kind == dataset.KindSolidity {
				ext = ".sol"
			}
			site := "so"
			if s.Site == dataset.EthereumSE {
				site = "ese"
			}
			write(filepath.Join(*out, "qa", site, s.ID+ext), s.Source)
		}
	}
	fmt.Printf("qa: %d posts, %d snippets\n", len(qa.Posts), len(qa.Snippets))

	// Sanctuary.
	sc := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: *seed + 1, Scale: *scale}, qa)
	if tree {
		var idx strings.Builder
		idx.WriteString("address,deployed,compiler,from_snippet,planted_before\n")
		for _, c := range sc {
			write(filepath.Join(*out, "sanctuary", c.Address+".sol"), c.Source)
			fmt.Fprintf(&idx, "%s,%s,%s,%s,%v\n",
				c.Address, c.Deployed.Format("2006-01-02"), c.Compiler, c.FromSnippet, c.PlantedBefore)
		}
		write(filepath.Join(*out, "sanctuary", "index.csv"), idx.String())
	}
	fmt.Printf("sanctuary: %d contracts\n", len(sc))

	if *snapshot == "" {
		return
	}

	// Fingerprint the deployed-contract corpora in parallel and emit the
	// snapshot the service restores from. Written via temp + rename so a
	// killed run never leaves a half-snapshot behind.
	engine := service.New(service.Options{
		CCD:    ccd.Config{N: *snapN, Eta: *snapEta, Epsilon: *snapEps},
		Shards: *snapShards,
	})
	entries := make([]service.CorpusEntry, 0, len(sc)+len(hp))
	for _, c := range sc {
		entries = append(entries, service.CorpusEntry{ID: "sanctuary/" + c.Address, Source: c.Source})
	}
	for _, h := range hp {
		entries = append(entries, service.CorpusEntry{ID: "honeypot/" + h.ID, Source: h.Source})
	}
	parseIssues := 0
	for _, err := range engine.CorpusAddBatch(entries) {
		if err != nil {
			parseIssues++
		}
	}
	corpus := engine.Corpus()
	die(os.MkdirAll(filepath.Dir(*snapshot), 0o755))
	size, err := service.WriteFileAtomic(*snapshot, corpus.WriteSnapshot)
	die(err)
	fmt.Printf("snapshot: %s (%d shards, %d entries, %d bytes, %d parse issues)\n",
		*snapshot, corpus.Shards(), corpus.Len(), size, parseIssues)
}
