// Command soddstudy reproduces the paper's evaluation end to end and prints
// the corresponding tables:
//
//	soddstudy -table 1        # CCC vs 8 analysis tools (SmartBugs-like)
//	soddstudy -table 2        # CCC on Original/Functions/Statements
//	soddstudy -table 3        # CCD vs SmartEmbed on honeypots
//	soddstudy -table study    # Tables 4-8 (the full Figure 6 pipeline)
//	                          # plus the corpus-wide clone study
//	soddstudy -table 9        # Figure 9 / Table 9 parameter sweep
//	soddstudy -table all      # everything
//
// -scale controls the corpus size of the study relative to the paper
// (default 0.02 ≈ 790 snippets / 6,450 contracts).
//
// The study run ends with the corpus-wide clone study: every contract is
// self-joined against the corpus (posting-list blocking, no O(n²) scoring)
// and clustered with incremental union-find. It runs on the serving engine
// — sharded scatter-gather corpus, pooled fan-out — i.e. the implementation
// behind cmd/serve's /v1/study corpus mode. -clone-limit caps the matches
// per document (0 = exact).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/ccd"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
)

func main() {
	table := flag.String("table", "all", "which table to reproduce: 1, 2, 3, study, 9, all")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	scale := flag.Float64("scale", 0.02, "study corpus scale (1.0 = paper size)")
	csvOut := flag.String("csv", "", "write the Figure 9 sweep as CSV to this file")
	cloneLimit := flag.Int("clone-limit", 0, "per-document match cap of the clone study (0 = exact join)")
	flag.Parse()

	run1 := func() { fmt.Println(experiments.RenderTable1(experiments.Table1(*seed))) }
	run2 := func() { fmt.Println(experiments.RenderTable2(experiments.Table2(*seed))) }
	// Table 3 is built once and shared with Figure 9, whose SmartEmbed
	// reference point it is.
	table3 := sync.OnceValue(func() experiments.Table3Result {
		return experiments.Table3(*seed, ccd.DefaultConfig)
	})
	run3 := func() { fmt.Println(experiments.RenderTable3(table3())) }
	runStudy := func() {
		// One engine backs the pipeline AND the clone study, so the study's
		// fingerprints come straight from the content-addressed cache.
		cfg := pipeline.DefaultConfig()
		cfg.Seed = *seed
		cfg.Scale = *scale
		cfg.Engine = service.New(service.Options{CCD: cfg.CCD})
		res := pipeline.Run(cfg)
		fmt.Println(experiments.RenderStudy(res))
		rep, err := experiments.CloneStudy(cfg.Engine, res.Contracts, cfg.CCD, *cloneLimit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soddstudy: clone study: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderCloneStudy(rep))
	}
	run9 := func() {
		pts, se := experiments.Figure9(*seed), table3().SmartEmbed
		fmt.Println(experiments.RenderFigure9(pts, se))
		best := experiments.BestFigure9(pts)
		fmt.Printf("best combination: N=%d eta=%.1f epsilon=%.0f (precision=%.4f recall=%.4f)\n",
			best.N, best.Eta, best.Epsilon, best.Precision, best.Recall)
		if *csvOut != "" {
			if err := os.WriteFile(*csvOut, []byte(experiments.Figure9CSV(pts, se)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "soddstudy: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("sweep written to %s\n", *csvOut)
		}
	}

	switch *table {
	case "1":
		run1()
	case "2":
		run2()
	case "3":
		run3()
	case "study", "4", "5", "6", "7", "8":
		runStudy()
	case "9", "fig9":
		run9()
	case "all":
		run1()
		run2()
		run3()
		runStudy()
		run9()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}
