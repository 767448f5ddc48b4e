package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/service/api"
)

// engineOptions are the program's defaults with the quality ladder off: under
// slow fsyncs the ladder halves the match limit, and the work of a request
// must not depend on the disk the benchmark happens to run on.
var engineOptions = service.Options{Degrade: service.DegradeConfig{Disabled: true}}

// fixture is one instance of the program under test plus the bookkeeping of
// the requests sent to it.
type fixture struct {
	w  *workload
	in *inputs

	handler http.Handler
	engine  *service.Engine // behind handler; the router node's own for shardNodes
	store   *service.Store  // mappedStore, heapStore
	dir     string
	scratch string         // dir is made here
	snap    []byte         // the store was opened on this snapshot of the preload
	router  *remote.Router // shardNodes
	nodes   []*node

	next      int // cursor into in.fresh
	acked     int // contracts the program acknowledged
	attempted int
	failed    int
	rec       recorder
}

// node is one shard node. Its handler is wrapped so the traced pass can see
// when the node was busy on behalf of a routed request.
type node struct {
	engine *service.Engine
	server *httptest.Server
	inner  http.Handler
	log    atomic.Pointer[callLog]
}

type callLog struct {
	mu    sync.Mutex
	calls [][2]time.Time
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := n.log.Load()
	if l == nil {
		n.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	n.inner.ServeHTTP(w, r)
	end := time.Now()
	l.mu.Lock()
	l.calls = append(l.calls, [2]time.Time{start, end})
	l.mu.Unlock()
}

// buildSnapshot indexes the preload by source, as a first boot does, and
// returns the corpus snapshot.
func buildSnapshot(preload []service.CorpusEntry) ([]byte, error) {
	e := service.New(engineOptions)
	e.CorpusAddBatch(preload) // parse issues index a partial fingerprint, as in production
	if e.Corpus().Len() != len(preload) {
		return nil, fmt.Errorf("indexed %d of %d preloaded contracts", e.Corpus().Len(), len(preload))
	}
	var buf bytes.Buffer
	if err := e.Corpus().WriteSnapshot(&buf); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// newFixture brings the program up to the point where it can take requests.
// snap, when given, stands in for indexing the preload by source. Stores live
// in fresh directories under scratch.
func newFixture(w *workload, in *inputs, snap []byte, scratch string) (*fixture, error) {
	f := &fixture{w: w, in: in, engine: service.New(engineOptions), scratch: scratch}
	switch w.topo {
	case noCorpus:
		f.handler = api.NewServer(f.engine).Handler()
	case mappedStore, heapStore:
		var err error
		if snap == nil {
			if snap, err = buildSnapshot(in.preload); err != nil {
				return nil, err
			}
		}
		f.snap = snap
		if f.dir, err = os.MkdirTemp(scratch, w.name+"-"); err != nil {
			return nil, err
		}
		if err = os.WriteFile(filepath.Join(f.dir, service.SnapshotFile), snap, 0o644); err == nil {
			f.store, err = service.OpenStoreWith(f.dir, f.engine.Corpus(), service.StoreOptions{NoMapSegments: w.topo == heapStore})
		}
		if err != nil {
			os.RemoveAll(f.dir)
			return nil, err
		}
		f.handler = api.NewServer(f.engine, api.WithStore(f.store)).Handler()
	case shardNodes:
		const shards = 2
		ring := remote.NewRing(shards)
		split := make([][]service.CorpusEntry, shards)
		for _, e := range in.preload {
			split[ring.Owner(e.ID)] = append(split[ring.Owner(e.ID)], e)
		}
		var targets []string
		for i := 0; i < shards; i++ {
			n := &node{engine: service.New(engineOptions)}
			n.engine.CorpusAddBatch(split[i])
			n.inner = api.NewServer(n.engine, api.WithPartition(i, shards)).Handler()
			n.server = httptest.NewServer(n)
			f.nodes = append(f.nodes, n)
			targets = append(targets, n.server.URL)
		}
		f.router = remote.NewRouter(remote.Config{Targets: targets, Epsilon: f.engine.Corpus().Epsilon()})
		f.handler = api.NewServer(f.engine, api.WithRouter(f.router)).Handler()
	}
	return f, nil
}

func (f *fixture) close() {
	for _, n := range f.nodes {
		n.server.Close()
	}
	if f.store != nil {
		f.store.Close()
		os.RemoveAll(f.dir)
	}
}

// renew closes the fixture and returns a new one restored from the same
// snapshot, as if nothing had been written. The counts of attempted and failed
// operations carry over.
func (f *fixture) renew() (*fixture, error) {
	f.close()
	n, err := newFixture(f.w, f.in, f.snap, f.scratch)
	if err != nil {
		return nil, err
	}
	n.attempted, n.failed = f.attempted, f.failed
	return n, nil
}

// corpora lists every corpus that holds part of the fixture's documents.
func (f *fixture) corpora() []*service.Corpus {
	if f.w.topo != shardNodes {
		return []*service.Corpus{f.engine.Corpus()}
	}
	var cs []*service.Corpus
	for _, n := range f.nodes {
		cs = append(cs, n.engine.Corpus())
	}
	return cs
}

// recorder is the ResponseWriter requests are served into: in process, no
// sockets, one buffer reused across requests.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// post serves one request and returns the status and the body, which is
// valid until the next post.
func (f *fixture) post(o *op) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, opPath[o.kind], bytes.NewReader(o.body))
	if err != nil {
		panic(err) // the paths are constants
	}
	f.rec.header, f.rec.code = http.Header{}, 0
	f.rec.body.Reset()
	f.handler.ServeHTTP(&f.rec, req)
	return f.rec.code, f.rec.body.Bytes()
}

// count books one answered request: anything but a 2xx that acknowledges
// every contract sent is a failed operation.
func (f *fixture) count(o *op, code int, body []byte) {
	f.attempted++
	ok := code/100 == 2
	if ok && o.kind == opBulk {
		var r api.BulkResponse
		ok = json.Unmarshal(body, &r) == nil && r.Added == len(o.docs)
		f.acked += r.Added
	}
	if !ok {
		f.failed++
	}
}

// slot resolves position i of the lap to a request.
func (f *fixture) slot(i int) *op {
	if o := f.in.lap[i]; o != nil {
		return o
	}
	f.next++
	return f.in.fresh[f.next-1]
}

// canRun reports whether the inputs hold the write requests one fixture sends:
// those of a warm-up and of one lap.
func (f *fixture) canRun() bool {
	need := 0
	for i, o := range f.in.lap {
		if o == nil && i >= f.warmStart() {
			need++
		}
		if o == nil {
			need++
		}
	}
	return need <= len(f.in.fresh)
}

// reopen copies the store directory as a crash would leave it and opens the
// copy, returning how many contracts came back and how long the restore took.
func (f *fixture) reopen() (int, time.Duration, error) {
	dir, err := os.MkdirTemp(filepath.Dir(f.dir), "reopen-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	names, err := os.ReadDir(f.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, n := range names {
		if err := copyFile(filepath.Join(f.dir, n.Name()), filepath.Join(dir, n.Name())); err != nil {
			return 0, 0, err
		}
	}
	c := service.New(engineOptions).Corpus()
	start := time.Now()
	s, err := service.OpenStore(dir, c)
	if err != nil {
		return 0, 0, err
	}
	d := time.Since(start)
	return c.Len(), d, s.Close()
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
