// Command ccd fingerprints Solidity sources and finds code clones:
//
//	ccd fingerprint file.sol            # print the fuzzy fingerprint
//	ccd similarity a.sol b.sol          # Algorithm-1 similarity (0..100)
//	ccd match -corpus dir query.sol     # clones of query among dir/*.sol, best first
//
// Flags -n, -eta, -epsilon set the matcher parameters (defaults: the
// paper's best combination N=3, η=0.5, ε=0.7).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ccd"
	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "fingerprint":
		cmdFingerprint(os.Args[2:])
	case "similarity":
		cmdSimilarity(os.Args[2:])
	case "match":
		cmdMatch(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ccd fingerprint <file.sol>
  ccd similarity <a.sol> <b.sol>
  ccd match [-n N] [-eta E] [-epsilon S] -corpus <dir> <query.sol>`)
	os.Exit(2)
}

func read(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccd: %v\n", err)
		os.Exit(1)
	}
	return string(b)
}

func cmdFingerprint(args []string) {
	if len(args) != 1 {
		usage()
	}
	fp, err := core.Fingerprint(read(args[0]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccd: parse warnings: %v\n", err)
	}
	fmt.Println(fp)
}

func cmdSimilarity(args []string) {
	if len(args) != 2 {
		usage()
	}
	s, err := core.Similarity(read(args[0]), read(args[1]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccd: parse warnings: %v\n", err)
	}
	fmt.Printf("%.2f\n", s)
}

func cmdMatch(args []string) {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	n := fs.Int("n", 3, "n-gram size")
	eta := fs.Float64("eta", 0.5, "n-gram containment threshold (0..1)")
	epsilon := fs.Float64("epsilon", 70, "similarity threshold (0..100)")
	corpusDir := fs.String("corpus", "", "directory of .sol files to match against")
	_ = fs.Parse(args)
	if *corpusDir == "" || fs.NArg() != 1 {
		usage()
	}

	det := core.NewCloneDetector(ccd.Config{N: *n, Eta: *eta, Epsilon: *epsilon})
	files, err := filepath.Glob(filepath.Join(*corpusDir, "*.sol"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "ccd: no .sol files in %s\n", *corpusDir)
		os.Exit(1)
	}
	for _, f := range files {
		_ = det.Add(f, read(f))
	}
	matches, err := det.FindClones(read(fs.Arg(0)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccd: parse warnings: %v\n", err)
	}
	for _, m := range matches {
		fmt.Printf("%6.2f  %s\n", m.Score, m.ID)
	}
	if len(matches) == 0 {
		fmt.Fprintln(os.Stderr, "no clones found")
		os.Exit(1)
	}
}
