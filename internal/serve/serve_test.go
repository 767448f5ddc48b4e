package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
)

var roles = []string{"single", "shard", "router", "replica"}

// minimal returns the smallest valid configuration of role.
func minimal(role string) Config {
	c := Defaults()
	c.Role = role
	switch role {
	case "shard":
		c.Partition = "0/2"
	case "router":
		c.Shards = "http://h1:8071,http://h2:8072"
	case "replica":
		c.Partition, c.CorpusDir, c.BootstrapFrom = "0/2", "/data/r0", "http://h1:8071"
	}
	return c
}

// TestRoleFlagMatrix holds every role × flag pair to accept or reject: each
// flag is set to a value other than its default on the smallest valid
// configuration of each role, with the flags it needs set where the role
// reads it. A rejection names the flag.
func TestRoleFlagMatrix(t *testing.T) {
	const all, corpus, part = "single shard router replica", "single shard replica", "shard replica"
	flags := []struct {
		name    string
		readBy  string
		needs   func(c *Config)
		setFlag func(c *Config)
	}{
		{"addr", all, nil, func(c *Config) { c.Addr = ":9000" }},
		{"debug-addr", all, nil, func(c *Config) { c.DebugAddr = ":9001" }},
		{"log-format", all, nil, func(c *Config) { c.LogFormat = "json" }},
		{"log-level", all, nil, func(c *Config) { c.LogLevel = "debug" }},
		{"workers", all, nil, func(c *Config) { c.Workers = 3 }},
		{"cache", all, nil, func(c *Config) { c.Cache = -1 }},
		{"shards", all, nil, func(c *Config) {
			if c.Role == "router" {
				c.Shards = "http://h3:8071"
			} else {
				c.Shards = "3"
			}
		}},
		{"partition", part, nil, func(c *Config) { c.Partition = "1/2" }},
		{"replicas", "router", nil, func(c *Config) { c.Replicas = "http://r1:8073," }},
		{"waves", "router", nil, func(c *Config) { c.Waves = 1 }},
		{"bootstrap-from", part, func(c *Config) { c.CorpusDir = "/data/x" }, func(c *Config) { c.BootstrapFrom = "http://h9:8071" }},
		{"ccd-n", all, nil, func(c *Config) { c.CCDN = 7 }},
		{"ccd-eta", all, nil, func(c *Config) { c.CCDEta = 0.3 }},
		{"ccd-eps", all, nil, func(c *Config) { c.CCDEps = 90 }},
		{"corpus-dir", corpus, nil, func(c *Config) { c.CorpusDir = "/data/y" }},
		{"snapshot-interval", corpus, func(c *Config) { c.CorpusDir = "/data/x" }, func(c *Config) { c.SnapshotInterval = time.Minute }},
		{"mmap", corpus, func(c *Config) { c.CorpusDir = "/data/x" }, func(c *Config) { c.MMap = false }},
		{"trace-buffer", all, nil, func(c *Config) { c.TraceBuffer = 16 }},
		{"admission-queue", all, nil, func(c *Config) { c.AdmissionQueue = 0 }},
		{"rate-limit", all, nil, func(c *Config) { c.RateLimit = 50 }},
		{"rate-burst", all, func(c *Config) { c.RateLimit = 50 }, func(c *Config) { c.RateBurst = 100 }},
		{"bp-fsync-p99", corpus, func(c *Config) { c.CorpusDir = "/data/x" }, func(c *Config) { c.BPFsyncP99 = 0 }},
		{"bp-max-delay", corpus, func(c *Config) { c.CorpusDir = "/data/x" }, func(c *Config) { c.BPMaxDelay = time.Second }},
		{"max-deadline", all, nil, func(c *Config) { c.MaxDeadline = time.Minute }},
		{"degrade-off", all, nil, func(c *Config) { c.DegradeOff = true }},
	}
	var c Config
	if n := len(c.settings()); n != len(flags)+1 { // -role is the matrix's other axis
		t.Fatalf("%d settings, the matrix covers %d", n, len(flags)+1)
	}
	for _, f := range flags {
		for _, role := range roles {
			c := minimal(role)
			accept := strings.Contains(f.readBy, role)
			if accept && f.needs != nil {
				f.needs(&c)
			}
			f.setFlag(&c)
			err := c.Validate()
			switch {
			case accept && err != nil:
				t.Errorf("-role %s -%s: rejected: %v", role, f.name, err)
			case !accept && err == nil:
				t.Errorf("-role %s -%s: accepted, want rejected", role, f.name)
			case !accept && !strings.Contains(err.Error(), "-"+f.name+" "):
				t.Errorf("-role %s -%s: error %q does not name the flag", role, f.name, err)
			}
		}
	}
}

// TestRoleRouteMatrix holds every route × role pair to its status. Each role
// is built with Build, the router over two live shard nodes and the replica
// bootstrapped from the first, and every route is asked in turn on each. A
// route is served as on a single node, or a role refuses it: a status of its
// own and an error JSON, with trace_id, that names the role. The matrix is
// written here, apart from the api route table; a route a node registers (an
// endpoint key of its /metrics) without a row here fails the test, and so
// does a row no node registers.
func TestRoleRouteMatrix(t *testing.T) {
	const src = `"contract A { uint x; function f() public { x = 1; } }"`
	shardMatch, err := remote.ShardMatchRequest{Fingerprint: "QxRtYuIoPAbCdEfGh", K: 3}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	matrix := []struct {
		pattern, method, path, body string
		served, replica, router     int // single and shard, replica, router
	}{
		{"POST /v1/analyze", "POST", "/v1/analyze", `{"source": ` + src + `}`, 200, 200, 200},
		{"POST /v1/fingerprint", "POST", "/v1/fingerprint", `{"source": ` + src + `}`, 200, 200, 200},
		{"POST /v1/corpus", "POST", "/v1/corpus", `{"entries": [{"id": "a", "source": ` + src + `}]}`, 200, 409, 200},
		{"POST /v1/corpus/bulk", "POST", "/v1/corpus/bulk", `{"id": "b", "source": ` + src + `}` + "\n", 200, 409, 200},
		{"GET /v1/corpus", "GET", "/v1/corpus", "", 200, 200, 200},
		{"POST /v1/corpus/snapshot", "POST", "/v1/corpus/snapshot", "", 200, 200, 409},
		{"GET /v1/corpus/export", "GET", "/v1/corpus/export", "", 200, 200, 409},
		{"GET /v1/corpus/export", "GET", "/v1/corpus/export?format=ndjson", "", 200, 200, 409},
		{"POST /v1/match", "POST", "/v1/match", `{"source": ` + src + `}`, 200, 200, 200},
		{"POST /v1/study", "POST", "/v1/study", `{"mode": "corpus"}`, 202, 202, 202},
		{"GET /v1/study/{id}", "GET", "/v1/study/study-1", "", 200, 200, 200},
		{"GET /v1/study", "GET", "/v1/study", "", 200, 200, 200},
		{"GET /v1/clusters", "GET", "/v1/clusters", "", 200, 200, 200},
		{"GET /v1/clusters/export", "GET", "/v1/clusters/export", "", 200, 200, 200},
		{"POST /v1/shard/match", "POST", "/v1/shard/match", string(shardMatch), 200, 200, 404},
		{"GET /v1/wal/stream", "GET", "/v1/wal/stream", "", 200, 200, 404},
		{"GET /healthz", "GET", "/healthz", "", 200, 200, 200},
		{"GET /readyz", "GET", "/readyz", "", 200, 200, 200},
		{"GET /metrics", "GET", "/metrics", "", 200, 200, 200},
		{"GET /debug/traces", "GET", "/debug/traces", "", 200, 200, 200},
		{"GET /debug/traces/{id}", "GET", "/debug/traces/route-matrix", "", 200, 200, 200},
	}

	rows := map[string]bool{}
	for _, m := range matrix {
		rows[m.pattern] = true
	}

	ctx := context.Background()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	build := func(c Config) string {
		t.Helper()
		n, err := Build(ctx, c, logger)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler)
		t.Cleanup(func() { ts.Close(); n.Stop() })
		return ts.URL
	}
	single := minimal("single")
	single.CorpusDir = t.TempDir()
	var shards []string
	for i := range 2 {
		c := minimal("shard")
		c.Partition, c.CorpusDir = fmt.Sprintf("%d/2", i), t.TempDir()
		shards = append(shards, build(c))
	}
	router := minimal("router")
	router.Shards = strings.Join(shards, ",")
	replica := minimal("replica")
	replica.CorpusDir, replica.BootstrapFrom = t.TempDir(), shards[0]
	nodes := []struct{ role, url string }{
		{"single", build(single)}, {"shard", shards[0]}, {"router", build(router)}, {"replica", build(replica)},
	}

	do := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "route-matrix") // so /debug/traces/route-matrix finds a trace
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	for _, n := range nodes {
		for _, m := range matrix {
			want := m.served
			switch n.role {
			case "replica":
				want = m.replica
			case "router":
				want = m.router
			}
			status, body := do(m.method, n.url+m.path, m.body)
			if status != want {
				t.Errorf("-role %s %s %s: status %d, want %d: %.200s", n.role, m.method, m.path, status, want, body)
				continue
			}
			if want != m.served {
				var e struct {
					Error   string
					TraceID string `json:"trace_id"`
				}
				if json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, n.role) || e.TraceID == "" {
					t.Errorf("-role %s %s %s: refusal %s does not name the role with a trace id", n.role, m.method, m.path, body)
				}
			}
			for i := 0; m.path == "/v1/study" && i < 500; i++ {
				// The clusters rows read the finished study.
				if _, job := do("GET", n.url+"/v1/study/study-1", ""); !strings.Contains(string(job), `"running"`) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}

		_, body := do("GET", n.url+"/metrics", "")
		var metrics struct{ Endpoints map[string]any }
		if err := json.Unmarshal(body, &metrics); err != nil {
			t.Fatal(err)
		}
		for pattern := range metrics.Endpoints {
			if !rows[pattern] {
				t.Errorf("-role %s registers %q, which has no matrix row", n.role, pattern)
			}
		}
		for pattern := range rows {
			if _, ok := metrics.Endpoints[pattern]; !ok {
				t.Errorf("-role %s does not register %q", n.role, pattern)
			}
		}
	}
}

// TestValidateNamesTheFlag covers what the matrix does not: missing
// prerequisites, flags a role requires, and values that do not parse.
func TestValidateNamesTheFlag(t *testing.T) {
	cases := []struct {
		name, role, flag string
		edit             func(c *Config)
	}{
		{"router with -corpus-dir", "router", "-corpus-dir", func(c *Config) { c.CorpusDir = "/tmp/r" }},
		{"single with -waves", "single", "-waves", func(c *Config) { c.Waves = 2 }},
		{"replica without -bootstrap-from", "replica", "-bootstrap-from", func(c *Config) { c.BootstrapFrom = "" }},
		{"-rate-burst without -rate-limit", "single", "-rate-burst", func(c *Config) { c.RateBurst = 100 }},
		{"-mmap=false without -corpus-dir", "single", "-mmap", func(c *Config) { c.MMap = false }},
		{"-bp-fsync-p99 0 without -corpus-dir", "single", "-bp-fsync-p99", func(c *Config) { c.BPFsyncP99 = 0 }},
		{"-bp-max-delay with -bp-fsync-p99 0", "single", "-bp-max-delay", func(c *Config) {
			c.CorpusDir, c.BPFsyncP99, c.BPMaxDelay = "/data/x", 0, time.Second
		}},
		{"-snapshot-interval without -corpus-dir", "single", "-snapshot-interval", func(c *Config) { c.SnapshotInterval = time.Minute }},
		{"-bootstrap-from without -corpus-dir", "shard", "-bootstrap-from", func(c *Config) { c.BootstrapFrom = "http://h1:8071" }},
		{"shard without -partition", "shard", "-partition", func(c *Config) { c.Partition = "" }},
		{"router without -shards", "router", "-shards", func(c *Config) { c.Shards = "" }},
		{"router with only empty -shards", "router", "-shards", func(c *Config) { c.Shards = " , " }},
		{"a count that does not parse", "single", "-shards", func(c *Config) { c.Shards = "http://h1" }},
		{"a negative count", "shard", "-shards", func(c *Config) { c.Shards = "-1" }},
		{"a partition out of range", "shard", "-partition", func(c *Config) { c.Partition = "2/2" }},
		{"a partition with trailing bytes", "replica", "-partition", func(c *Config) { c.Partition = "0/2x" }},
		{"an unknown role", "single", "-role", func(c *Config) { c.Role = "primary" }},
	}
	for _, tc := range cases {
		c := minimal(tc.role)
		tc.edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: Validate = %v, want an error naming %s", tc.name, err, tc.flag)
		}
	}
	for _, role := range roles {
		if err := minimal(role).Validate(); err != nil {
			t.Errorf("minimal -role %s: %v", role, err)
		}
	}
}

// TestRegisterFlags: every setting is a flag whose default is Defaults'
// value, parsing writes into the Config, and the flag count stays at 26.
func TestRegisterFlags(t *testing.T) {
	c := Defaults()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	c.RegisterFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 26 {
		t.Fatalf("%d flags, want 26", n)
	}
	if err := fs.Parse([]string{"-role", "router", "-shards", "http://a,http://b", "-waves", "1", "-bp-max-delay", "1s"}); err != nil {
		t.Fatal(err)
	}
	want := Defaults()
	want.Role, want.Shards, want.Waves, want.BPMaxDelay = "router", "http://a,http://b", 1, time.Second
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	if u := fs.Lookup("bp-max-delay").Usage; !strings.Contains(u, "needs: corpus-dir bp-fsync-p99") {
		t.Errorf("-bp-max-delay usage %q does not name the flags it needs", u)
	}
}

// TestReplicaBootstrapsAndTails builds a primary shard and a replica of it:
// the replica boots with the primary's corpus, then converges on an add made
// after its boot through the WAL tail loop, and Stop ends that loop.
func TestReplicaBootstrapsAndTails(t *testing.T) {
	ctx := context.Background()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	add := func(n *Node, ids ...string) {
		t.Helper()
		for _, id := range ids {
			fp := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTyUiOp" + id)
			if err := n.Engine.CorpusAddBatch([]service.CorpusEntry{{ID: id, Fingerprint: fp}})[0]; err != nil {
				t.Fatal(err)
			}
		}
	}

	pc := minimal("shard")
	pc.Partition, pc.CorpusDir = "0/1", t.TempDir()
	primary, err := Build(ctx, pc, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Stop()
	ts := httptest.NewServer(primary.Handler)
	defer ts.Close()
	add(primary, "a", "b", "c")

	rc := minimal("replica")
	rc.Partition, rc.CorpusDir, rc.BootstrapFrom = "0/1", t.TempDir(), ts.URL
	replica, err := Build(ctx, rc, logger)
	if err != nil {
		t.Fatal(err)
	}
	if got := replica.Engine.Corpus().Len(); got != 3 {
		t.Fatalf("replica booted with %d entries, want the primary's 3", got)
	}
	add(primary, "d")
	deadline := time.Now().Add(10 * replicaTailInterval)
	for replica.Engine.Corpus().Len() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("replica holds %d entries %v after the primary's fourth add", replica.Engine.Corpus().Len(), 10*replicaTailInterval)
		}
		time.Sleep(20 * time.Millisecond)
	}
	replica.Stop()

	// A bootstrap from a peer that is not there fails Build and names it.
	rc.CorpusDir, rc.BootstrapFrom = t.TempDir(), ts.URL+"/gone"
	if _, err := Build(ctx, rc, logger); err == nil || !strings.Contains(err.Error(), rc.BootstrapFrom) {
		t.Fatalf("bootstrap from a missing peer: %v", err)
	}
}

// TestReplicaResyncsAfterTruncation drives the replica's 410 path. The
// primary snapshots, which truncates its WAL and moves its epoch, then takes
// one more add: the replica's next tail gets a 410, it re-syncs from the
// export and ends holding exactly the primary's ids. Then the primary loses
// its -corpus-dir and comes back empty at the same address under a new
// epoch: the replica re-syncs again and drops what the primary no longer
// holds, so failover reads cannot serve documents the partition lost.
func TestReplicaResyncsAfterTruncation(t *testing.T) {
	ctx := context.Background()
	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, nil))
	build := func(c Config) *Node {
		t.Helper()
		n, err := Build(ctx, c, logger)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	add := func(n *Node, ids ...string) { addIDs(t, n, ids...) }

	pc := minimal("shard")
	pc.Partition, pc.CorpusDir = "0/1", t.TempDir()
	primary := build(pc)
	var current atomic.Pointer[Node] // the node answering at the primary's address
	current.Store(primary)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().Handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	add(primary, "a", "b", "c")

	rc := minimal("replica")
	rc.Partition, rc.CorpusDir, rc.BootstrapFrom = "0/1", t.TempDir(), ts.URL
	replica := build(rc)
	defer replica.Stop()

	converge := func(resyncs int, after string) {
		t.Helper()
		deadline := time.Now().Add(10 * replicaTailInterval)
		for {
			want, got := corpusIDs(current.Load()), corpusIDs(replica)
			n := strings.Count(logs.String(), "re-syncing via export")
			if slices.Equal(got, want) && n == resyncs {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica holds %v after %d re-syncs, want the primary's %v after %d", after, got, n, want, resyncs)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if _, err := primary.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	add(primary, "d")
	converge(1, "the primary's snapshot and fourth add")
	// A tail that brings "e" is answered in the primary's current epoch.
	add(primary, "e")
	converge(1, "the primary's fifth add")

	pc.CorpusDir = t.TempDir()
	current.Store(build(pc))
	defer current.Load().Stop()
	primary.Stop()
	add(current.Load(), "f")
	converge(2, "the primary came back empty")
}

// TestReplicaResyncResumesInThePrimarysGeneration: a re-sync returns the WAL
// position and generation its read of the primary ended at, so a snapshot
// the primary takes before the next poll makes that poll a 410 (and another
// re-sync), never a quiet read of the new log that misses what the snapshot
// took out of the old one. The node re-synced here is bootstrapped as a
// shard, so no tail loop polls behind the test's back.
func TestReplicaResyncResumesInThePrimarysGeneration(t *testing.T) {
	ctx := context.Background()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	pc := minimal("shard")
	pc.Partition, pc.CorpusDir = "0/1", t.TempDir()
	primary, err := Build(ctx, pc, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Stop()
	ts := httptest.NewServer(primary.Handler)
	defer ts.Close()
	addIDs(t, primary, "a")
	rc := minimal("shard")
	rc.Partition, rc.CorpusDir, rc.BootstrapFrom = "0/1", t.TempDir(), ts.URL
	node, err := Build(ctx, rc, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	peer := remote.NewClient(time.Minute)
	pos, epoch, err := resyncExport(ctx, node.Engine, node.Store, peer, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	addIDs(t, primary, "x")
	if _, err := primary.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, _, err = applyWALTail(ctx, node.Engine, peer, ts.URL, pos, epoch)
	if se := (*remote.StatusError)(nil); !errors.As(err, &se) || se.Status != http.StatusGone {
		t.Fatalf("tail after the primary's snapshot: %v (holding %v), want a 410", err, corpusIDs(node))
	}
}

// addIDs adds one fingerprint per id to n's corpus, as its primary's WAL
// or a client would.
func addIDs(t *testing.T, n *Node, ids ...string) {
	t.Helper()
	for _, id := range ids {
		fp := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTyUiOp" + id)
		if err := n.Engine.CorpusAddBatch([]service.CorpusEntry{{ID: id, Fingerprint: fp}})[0]; err != nil {
			t.Fatal(err)
		}
	}
}

// corpusIDs lists the ids n's corpus holds, sorted.
func corpusIDs(n *Node) []string {
	var ids []string
	c := n.Engine.Corpus()
	for i := range c.Shards() {
		entries, _ := c.ShardEntries(i)
		for _, e := range entries {
			ids = append(ids, e.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// syncBuffer is a log sink that tests read while the node writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
