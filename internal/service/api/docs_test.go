package api

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/service"
)

// docsMetricsPath reaches the operator-facing metrics reference from this
// package; the test is the contract that keeps the table in that file and
// the live exposition identical.
const docsMetricsPath = "../../../docs/metrics.md"

// docTableRow matches one metric row of the reference table:
// | `ccd_name` | type | meaning |
var docTableRow = regexp.MustCompile("^\\|\\s*`(ccd_[a-z0-9_]+)`\\s*\\|\\s*(counter|gauge|histogram)\\s*\\|")

// TestMetricsDocCoversExposition diffs docs/metrics.md against a live
// Prometheus scrape in both directions: every exposed family must be
// documented with the right type, and every documented family must still be
// exposed. The server is assembled with a store, admission control and a
// rate limiter so the conditional families (durability, overload) render.
func TestMetricsDocCoversExposition(t *testing.T) {
	engine := service.New(service.Options{
		Workers: 2, Shards: 2,
		Admission: service.AdmissionConfig{MaxQueue: 4},
	})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(NewServer(engine,
		WithStore(store), WithRateLimit(1000, 1000)).Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Exposed families, from the # TYPE preamble each family must emit.
	exposed := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			exposed[fields[2]] = fields[3]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(exposed) == 0 {
		t.Fatal("scrape produced no # TYPE lines")
	}

	// Documented families, from the reference tables.
	doc, err := os.ReadFile(docsMetricsPath)
	if err != nil {
		t.Fatalf("metrics reference missing: %v", err)
	}
	documented := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := docTableRow.FindStringSubmatch(line); m != nil {
			if _, dup := documented[m[1]]; dup {
				t.Errorf("%s documented twice in %s", m[1], docsMetricsPath)
			}
			documented[m[1]] = m[2]
		}
	}

	for name, typ := range exposed {
		docTyp, ok := documented[name]
		if !ok {
			t.Errorf("exposed family %s (%s) is missing from %s", name, typ, docsMetricsPath)
			continue
		}
		if docTyp != typ {
			t.Errorf("%s documented as %s but exposed as %s", name, docTyp, typ)
		}
	}
	for name := range documented {
		if _, ok := exposed[name]; !ok {
			t.Errorf("documented family %s is no longer exposed", name)
		}
	}
}

// docJSONKey matches one backticked key in the first column of the JSON-view
// table.
var docJSONKey = regexp.MustCompile("`([a-z0-9_]+)`")

// TestMetricsDocCoversJSON diffs the "JSON view" table of docs/metrics.md
// against the top-level keys of a live JSON /metrics in both directions, as
// TestMetricsDocCoversExposition does for the Prometheus families. The keys
// that render only conditionally come from a single node with a store and a
// rate limiter (durability) and from a router (remote).
func TestMetricsDocCoversJSON(t *testing.T) {
	engine := service.New(service.Options{Workers: 2, Shards: 2})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	single := httptest.NewServer(NewServer(engine,
		WithStore(store), WithRateLimit(1000, 1000)).Handler())
	defer single.Close()
	router := remote.NewRouter(remote.Config{Targets: []string{single.URL}})
	routed := httptest.NewServer(NewServer(service.New(service.Options{Workers: 1}), WithRouter(router)).Handler())
	defer routed.Close()

	live := map[string]bool{}
	for _, base := range []string{single.URL, routed.URL} {
		resp, err := routed.Client().Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s/metrics: %v", base, err)
		}
		for k := range m {
			live[k] = true
		}
	}

	doc, err := os.ReadFile(docsMetricsPath)
	if err != nil {
		t.Fatalf("metrics reference missing: %v", err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## The JSON view\n")
	if !ok {
		t.Fatalf("%s has no \"The JSON view\" section", docsMetricsPath)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range docJSONKey.FindAllStringSubmatch(cells[1], -1) {
			if documented[m[1]] {
				t.Errorf("JSON key %s documented twice in %s", m[1], docsMetricsPath)
			}
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatalf("no JSON keys found in %s", docsMetricsPath)
	}

	for k := range live {
		if !documented[k] {
			t.Errorf("JSON /metrics key %q is missing from %s", k, docsMetricsPath)
		}
	}
	for k := range documented {
		if !live[k] {
			t.Errorf("documented JSON key %q is not in a live /metrics", k)
		}
	}
}

// TestDocsCrossLinksResolve pins the relative links between README and the
// docs tree from this package's vantage point (CI also runs a repo-wide
// markdown link check; this keeps `go test` self-sufficient).
func TestDocsCrossLinksResolve(t *testing.T) {
	for _, p := range []string{
		"../../../README.md",
		"../../../docs/metrics.md",
		"../../../docs/operations.md",
		"../../../docs/tuning.md",
	} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("doc missing: %v", err)
		}
	}
}
