package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// slicesPerLap is how many separately timed parts a lap is cut into.
	slicesPerLap = 32
	// minLaps run even when one lap outlasts the requested seconds, so that
	// every timing has one to be compared with.
	minLaps = 2
	// warmSlice is the slice of the lap at which the warm-up begins.
	warmSlice = slicesPerLap * 3 / 4
	// setupRuns is how many times a run sets the program up at the least;
	// setup_s is the median. A program that is up in under a second is set up
	// again until setupSeconds have gone into it, because the median of three
	// quarter-second set-ups moved by a quarter between two sets of runs.
	setupRuns    = 3
	setupSeconds = 3.0
)

// sample is the timing of one slice of one lap.
type sample struct {
	wall, cpu time.Duration
	ops       int
}

// lap is the timing of one pass over the request list: wall and CPU time per
// slice, latency per request.
type lap struct {
	slices []sample
	lat    []time.Duration // indexed like inputs.lap
}

// cpuTime is the user plus system time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the most memory the process has held, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runLap sends the lap from slice `first` to its end (0 for a whole lap), one
// client, each request after the previous answer.
func (f *fixture) runLap(first int) lap {
	n := len(f.in.lap)
	slices := min(slicesPerLap, n)
	l := lap{lat: make([]time.Duration, n)}
	for k := min(first, slices); k < slices; k++ {
		lo, hi := k*n/slices, (k+1)*n/slices
		cpu, start := cpuTime(), time.Now()
		for i := lo; i < hi; i++ {
			o := f.slot(i)
			t := time.Now()
			code, body := f.post(o)
			l.lat[i] = time.Since(t)
			f.count(o, code, body)
		}
		l.slices = append(l.slices, sample{wall: time.Since(start), cpu: cpuTime() - cpu, ops: hi - lo})
	}
	return l
}

// warmStart is the position in the lap at which the warm-up begins.
func (f *fixture) warmStart() int {
	n := len(f.in.lap)
	slices := min(slicesPerLap, n)
	return min(warmSlice, slices) * n / slices
}

// warmUp sends the last quarter of a lap untimed, so that the first timed lap
// continues the cycle (a pool sized to miss the LRU caches only misses when
// cycled in order). That is enough for pools, page cache and lazily built
// state to settle. What it leaves cold on a fixture that is replayed (a cache
// entry first filled during lap one) makes a request slower once, and the
// fastest-of-laps rule drops that.
func (f *fixture) warmUp() { f.runLap(warmSlice) }

// measure replays the lap for the given time and returns the fixture the last
// lap ran on. A read-only lap leaves the program as it found it and is
// replayed on the same fixture. A lap that writes is not: the corpus it meets
// has grown by the lap before. So each such lap gets a fixture of its own,
// restored from the same snapshot and warmed up alike, and sends the same
// contracts; every lap is then the same work, however many a run has time for.
func (f *fixture) measure(seconds float64) (*fixture, []lap, error) {
	var laps []lap
	start := time.Now()
	for len(laps) < minLaps || time.Since(start).Seconds() < seconds {
		if len(f.in.fresh) > 0 && len(laps) > 0 {
			var err error
			if f, err = f.renew(); err != nil {
				return nil, nil, err
			}
			f.warmUp()
			runtime.GC()
		}
		laps = append(laps, f.runLap(0))
	}
	return f, laps, nil
}

// summary is what the timed laps come to, per request type where it is a
// latency.
type summary struct {
	opsPerS, cpuMsPerOp float64
	p50, p95, p99       [numKinds]float64 // ms; 0 for a type the lap does not hold
	samples             [numKinds]int     // latencies the percentiles are taken over
}

// summarize turns laps into numbers by one rule: of the timings one slice,
// or one request, got over the laps, the fastest is kept. Every lap is the
// same requests against the same state of the program (see measure), so the
// timings of one of them differ by what else the machine was doing, and on a
// shared 2-vCPU box that only ever makes them slower. Throughput and CPU are
// over the kept slices, the latency percentiles over the kept request timings:
// latency_p95_ms is the 95th percentile of the requests' quiet-machine costs,
// not of all requests sent. A stall that meets the same request every lap (a
// heavy query, a compaction the same contracts set off) stays in; one that
// lands elsewhere every lap (a GC cycle, a slow fsync) shows in ops_per_s and
// cpu_ms_per_op, since every slice holds some, but not in the percentiles.
func summarize(laps []lap, in *inputs) (s summary) {
	var lat [numKinds][]time.Duration
	for i, o := range in.lap {
		kind := opBulk // an empty slot takes a fresh write request
		if o != nil {
			kind = o.kind
		}
		best := laps[0].lat[i]
		for _, l := range laps[1:] {
			best = min(best, l.lat[i])
		}
		lat[kind] = append(lat[kind], best)
	}
	for k := range lat {
		s.p50[k], s.p95[k], s.p99[k], s.samples[k] = percentile(lat[k], 0.50), percentile(lat[k], 0.95), percentile(lat[k], 0.99), len(lat[k])
	}
	var kept sample
	for k := range laps[0].slices {
		best := laps[0].slices[k]
		for _, l := range laps[1:] {
			if l.slices[k].wall < best.wall {
				best = l.slices[k]
			}
		}
		kept.wall += best.wall
		kept.cpu += best.cpu
		kept.ops += best.ops
	}
	s.opsPerS, s.cpuMsPerOp = float64(kept.ops)/kept.wall.Seconds(), ms(kept.cpu)/float64(kept.ops)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of ds in ms; 0 when ds is empty.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return ms(s[max(0, int(math.Ceil(p*float64(len(s))))-1)])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// lapSeconds is the wall time of each lap.
func lapSeconds(laps []lap) []float64 {
	walls := make([]float64, len(laps))
	for i, l := range laps {
		for _, s := range l.slices {
			walls[i] += s.wall.Seconds()
		}
	}
	return walls
}

// lapSpread is (max − min) ÷ median of the laps' wall times, in percent: how
// much the machine disturbed the run.
func lapSpread(laps []lap) float64 {
	walls := lapSeconds(laps)
	sort.Float64s(walls)
	return 100 * (walls[len(walls)-1] - walls[0]) / median(walls)
}
