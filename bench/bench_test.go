package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// declared is the part of BENCHMARK.json the binary has to agree with.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at a hundredth of its
// size and holds the output against BENCHMARK.json: same workloads with the
// same reasons, exactly the declared metrics with the declared units, and no
// failed operation.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(procs)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(decl.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		for _, trace := range []bool{false, true} {
			c := config{w: w, seed: 3, seconds: 0.2, trace: trace, size: 0.01, scratch: t.TempDir(), out: t.TempDir()}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			var got, names []string
			for n, m := range res.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q", w.name, n)
				}
				got = append(got, n+" "+m.Unit)
			}
			for _, d := range want {
				names = append(names, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(names)
			if len(got) != len(names) {
				t.Fatalf("%s trace=%v: %d metrics emitted, %d declared\n got %v\nwant %v", w.name, trace, len(got), len(names), got, names)
			}
			for j := range got {
				if got[j] != names[j] {
					t.Errorf("%s trace=%v: emitted %q, declared %q", w.name, trace, got[j], names[j])
				}
			}
			if trace {
				if _, err := os.Stat(c.out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}
