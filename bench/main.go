// Command bench is the repository's benchmark of record: five workloads
// against the service's HTTP handlers, six end-to-end metrics taken untraced,
// and a traced pass that splits a lap over the layers. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procs pins GOMAXPROCS, and with it the engines' worker and shard counts,
// whatever the machine offers.
const procs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is what a run tells the suite about itself, besides its result.
type info struct {
	InputsSHA256   string    `json:"inputs_sha256"`
	LapOps         int       `json:"lap_ops"`
	LapSeconds     []float64 `json:"lap_s"` // wall time of each timed lap, in order
	LatencySamples int       `json:"latency_samples"`
	StoreFS        string    `json:"store_fs"`
	WallSeconds    float64   `json:"wall_s"`
}

type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	size    float64 // scales every corpus and lap; 1 except in the smoke test
	scratch string  // stores are made here
	out     string  // span files and reports are written here
}

// pin is the seed-1 record of a workload: the digest of its inputs and the
// count its output check arrives at (0 where the check pins none).
type pin struct {
	InputsSHA256 string `json:"inputs_sha256"`
	CheckCount   int    `json:"check_count"`
}

//go:embed golden.json
var goldenJSON []byte

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "all", "workload to run, or all for the whole set in child processes")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from; only seed 1 is pinned")
	seconds := flag.Float64("seconds", 14, "how long the timed phase replays the lap")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	aa := flag.Int("aa", 0, "run the whole set this many times and compare the halves (A/A)")
	update := flag.Bool("update-golden", false, "rewrite bench/golden.json from seed 1")
	flag.Parse()

	c := config{seed: *seed, seconds: *seconds, trace: *trace == 1, size: 1,
		scratch: filepath.Join(".bench_build", "stores"), out: filepath.Join("bench", "out")}
	var err error
	switch {
	case *update:
		err = updateGolden(c)
	case *aa > 0:
		err = runAA(c, *aa)
	case *name == "all":
		_, err = runSuite(c, false, false)
	default:
		if c.w = findWorkload(*name); c.w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var res *result
		if res, err = run(c); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes one workload in this process and prints its metrics.
func run(c config) (*result, error) {
	start := time.Now()
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	in := c.w.gen(gen{c.seed, c.size})
	digest := in.digest()
	genSeconds := time.Since(start).Seconds()

	var golden map[string]pin
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	want, pinned := golden[c.w.name]
	pinned = pinned && c.seed == 1 && c.size == 1
	if pinned && want.InputsSHA256 != digest {
		return nil, fmt.Errorf("inputs changed: %s generates %s at seed 1, golden.json has %s; a dataset generator drifted, so timings no longer compare", c.w.name, digest, want.InputsSHA256)
	}

	var res *result
	var inf info
	var err error
	if c.trace {
		res, inf, err = runTraced(c, in, genSeconds)
	} else {
		var count int
		res, inf, count, err = runTimed(c, in)
		if err == nil && pinned && count != want.CheckCount {
			fmt.Fprintf(os.Stderr, "check failed: output check counted %d, golden.json has %d\n", count, want.CheckCount)
			res.Failed++
		}
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	inf.InputsSHA256, inf.LapOps, inf.StoreFS = digest, len(in.lap), fsType(c.scratch)
	inf.WallSeconds = time.Since(start).Seconds()

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d GOMAXPROCS %d\n", c.w.name, c.seed, runtime.GOMAXPROCS(0))
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	b, _ := json.Marshal(inf)
	fmt.Printf("info %s\n", b)
	return res, nil
}

// runTimed is the untraced run: set up several times, replay the lap for the
// requested time, check the outputs, report the end-to-end metrics.
func runTimed(c config, in *inputs) (*result, info, int, error) {
	var f *fixture
	var setups []float64
	for spent := 0.0; len(setups) < setupRuns || spent < setupSeconds*c.size; spent += setups[len(setups)-1] {
		if f != nil {
			f.close()
		}
		runtime.GC() // input generation and the fixture before leave garbage; collecting it is not set-up
		start := time.Now()
		var err error
		if f, err = newFixture(c.w, in, nil, c.scratch); err != nil {
			return nil, info{}, 0, err
		}
		if !f.canRun() {
			f.close()
			return nil, info{}, 0, fmt.Errorf("%s: a lap needs more write requests than were generated", c.w.name)
		}
		f.warmUp()
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	f, laps, err := f.measure(c.seconds)
	if err != nil {
		return nil, info{}, 0, err
	}
	defer f.close()
	s := summarize(laps, in)
	count, err := f.check()
	if err != nil {
		return nil, info{}, 0, err
	}
	res := &result{Attempted: f.attempted, Failed: f.failed, Metrics: map[string]metric{
		"setup_s":        {median(setups), "s"},
		"ops_per_s":      {s.opsPerS, "1/s"},
		"latency_p50_ms": {s.p50[c.w.latency], "ms"},
		"latency_p95_ms": {s.p95[c.w.latency], "ms"},
		"cpu_ms_per_op":  {s.cpuMsPerOp, "ms"},
		"rss_peak_mb":    {peakRSSMB(), "MB"},
	}}
	return res, info{LapSeconds: lapSeconds(laps), LatencySamples: s.samples[c.w.latency]}, count, nil
}

// runTraced is the traced run: a short untraced pass for reference, then one
// traced lap on a fresh fixture beside a twin, reported as per-layer metrics.
func runTraced(c config, in *inputs, genSeconds float64) (*result, info, error) {
	ref, err := newFixture(c.w, in, nil, c.scratch)
	if err != nil {
		return nil, info{}, err
	}
	if !ref.canRun() {
		ref.close()
		return nil, info{}, fmt.Errorf("%s: a lap needs more write requests than were generated", c.w.name)
	}
	var u untraced
	ref.warmUp()
	runtime.GC()
	runtime.ReadMemStats(&u.mem[0])
	ref, laps, err := ref.measure(c.seconds * 0.4)
	if err != nil {
		return nil, info{}, err
	}
	defer ref.close()
	runtime.ReadMemStats(&u.mem[1])
	u.summary, u.spread, u.ops = summarize(laps, in), lapSpread(laps), len(laps)*len(in.lap)

	f, err := newFixture(c.w, in, ref.snap, c.scratch)
	if err != nil {
		return nil, info{}, err
	}
	defer f.close()
	twin, err := newFixture(c.w, in, ref.snap, c.scratch)
	if err != nil {
		return nil, info{}, err
	}
	defer twin.close()
	// Both fixtures are warmed alike before the recorded lap, so that it sees
	// the caches in the state the timings of an untraced run see: after a
	// whole lap where laps are replayed on one fixture, after the warm-up
	// where every lap gets a fixture of its own.
	warm := 0
	if len(in.fresh) > 0 {
		warm = f.warmStart()
	}
	newLayerPass(f, twin).lap(warm)
	p := newLayerPass(f, twin)
	p.lap(0)
	if err := p.finish(); err != nil {
		return nil, info{}, err
	}
	if err := p.tr.write(filepath.Join(c.out, "trace-"+c.w.name+".json")); err != nil {
		return nil, info{}, err
	}
	m := p.metrics(u, genSeconds)
	if r := m["driver.layer_sum_ratio"].Value; r < 0.85 || r > 1.15 {
		fmt.Fprintf(os.Stderr, "warning: %s: the layers timed on their own add up to %.2f of the handler's time\n", c.w.name, r)
	}
	res := &result{Attempted: ref.attempted + f.attempted, Failed: ref.failed + f.failed, Metrics: m}
	return res, info{LapSeconds: lapSeconds(laps), LatencySamples: u.samples[c.w.latency]}, nil
}

// updateGolden regenerates the seed-1 pins.
func updateGolden(c config) error {
	c.seed, c.size = 1, 1
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return err
	}
	golden := make(map[string]pin)
	for _, w := range workloads {
		in := w.gen(gen{c.seed, c.size})
		f, err := newFixture(w, in, nil, c.scratch)
		if err != nil {
			return err
		}
		p := pin{InputsSHA256: in.digest()}
		f.warmUp()  // the check meets the program as a run leaves it: after
		f.runLap(0) // a warm-up and one lap of writes
		p.CheckCount, err = f.check()
		f.close()
		if err != nil {
			return err
		}
		golden[w.name] = p
		fmt.Printf("%s %+v\n", w.name, p)
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(b, '\n'), 0o644)
}
