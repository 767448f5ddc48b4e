package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// header says where and on what a report was made.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	SetupRuns  int     `json:"setup_runs"`
}

// runReport is one child process's outcome.
type runReport struct {
	result
	Info info `json:"info"`
}

// report is the file a suite run writes.
type report struct {
	Header    header                `json:"header"`
	Untraced  map[string]*runReport `json:"untraced"`
	Traced    map[string]*runReport `json:"traced,omitempty"`
	WallTotal float64               `json:"wall_total_s"`
}

func newHeader(c config) header {
	h := header{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: c.seed, Seconds: c.seconds, SetupRuns: setupRuns}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// fsType names the filesystem under dir: fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// child runs one workload in a process of its own, passing its output
// through, and reads back the result line and the info line.
func child(c config, w *workload, trace bool) (*runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(c.seed), "--seconds", fmt.Sprint(c.seconds),
		"--trace", fmt.Sprint(t))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", w.name, t, err)
	}
	r := &runReport{}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "info "); ok {
			if err := json.Unmarshal([]byte(rest), &r.Info); err != nil {
				return nil, fmt.Errorf("%s: info line: %w", w.name, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return r, nil
}

// runSuite runs every workload, each in its own process, and writes the
// report. Reversed runs them last to first; untracedOnly skips the traced
// runs.
func runSuite(c config, reversed, untracedOnly bool) (*report, error) {
	start := time.Now()
	rep := &report{Header: newHeader(c), Untraced: map[string]*runReport{}, Traced: map[string]*runReport{}}
	incorrect := 0
	for i := range workloads {
		w := workloads[i]
		if reversed {
			w = workloads[len(workloads)-1-i]
		}
		for _, trace := range []bool{false, true} {
			if trace && untracedOnly {
				continue
			}
			r, err := child(c, w, trace)
			if err != nil {
				return nil, err
			}
			if !r.Correct {
				incorrect++
			}
			if trace {
				rep.Traced[w.name] = r
			} else {
				rep.Untraced[w.name] = r
			}
		}
	}
	rep.WallTotal = time.Since(start).Seconds()
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(c.out, "report.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("report written to %s after %.0f s\n", path, rep.WallTotal)
	if incorrect > 0 {
		return rep, fmt.Errorf("%d runs had failed operations", incorrect)
	}
	return rep, nil
}

// runAA runs the untraced set n times, alternating the workload order, and
// compares the median of the odd sets with the median of the even ones:
// the same code against itself, so every gap is noise. It fails when a gap
// exceeds the bound BENCHMARK.json declares for the metric.
func runAA(c config, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 sets")
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string][2][]float64{} // workload/metric -> values of even sets, of odd sets
	for i := 0; i < n; i++ {
		rep, err := runSuite(c, i%2 == 1, true)
		if err != nil {
			return err
		}
		for name, r := range rep.Untraced {
			for mname, m := range r.Metrics {
				v := values[name+"/"+mname]
				v[i%2] = append(v[i%2], m.Value)
				values[name+"/"+mname] = v
			}
		}
	}
	over := 0
	fmt.Printf("\n%-34s %12s %12s %8s %8s\n", "A/A over "+fmt.Sprint(n)+" sets", "even sets", "odd sets", "gap", "bound")
	for _, w := range workloads {
		for _, d := range decl.EndToEnd {
			v := values[w.name+"/"+d.Name]
			a, b := median(v[0]), median(v[1])
			gap := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if gap > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-34s %12.4f %12.4f %7.2f%% %7.0f%%%s\n", w.name+"/"+d.Name, a, b, 100*gap, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between identical sets by more than their bound", over)
	}
	return nil
}
