// Package serve is the one configuration of the serve command: a Config
// field per flag, Validate holding each role to the flags it reads, and
// Build turning a valid Config into a node for cmd/serve's listeners.
// docs/operations.md "Roles" tabulates the same rules.
package serve

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/service/api"
)

// Config holds one field per serve flag, and each field's tags are the rest
// of its setting: flag names it, help describes it, roles lists the roles
// that read it (absent: every role), required the roles that cannot run
// without it and needs the flags it needs switched on. Defaults holds every
// default; start from it, since the zero Config is not valid.
type Config struct {
	Addr             string        `flag:"addr" help:"listen address"`
	DebugAddr        string        `flag:"debug-addr" help:"private listener for pprof + trace/metrics endpoints (empty = disabled)"`
	LogFormat        string        `flag:"log-format" help:"log output format: text or json"`
	LogLevel         string        `flag:"log-level" help:"minimum log level: debug, info, warn, error (per-request lines log at debug)"`
	Role             string        `flag:"role" help:"node role: single (everything in-process), shard (owns one -partition), router (fans /v1/match over the -shards URLs) or replica (a shard that bootstraps from -bootstrap-from and keeps tailing its WAL)"`
	Workers          int           `flag:"workers" help:"worker pool size (0 = GOMAXPROCS)"`
	Cache            int           `flag:"cache" help:"entries per cache layer (0 = default, <0 disables)"`
	Shards           string        `flag:"shards" required:"router" help:"generation-shards per corpus, the scatter-gather width (empty or 0 = GOMAXPROCS); on a router, the comma-separated shard base URLs"`
	Partition        string        `flag:"partition" roles:"shard replica" required:"shard replica" help:"this node's hash partition as i/N"`
	Replicas         string        `flag:"replicas" roles:"router" help:"comma-separated replica base URLs aligned with the -shards list (empty slots allowed)"`
	Waves            int           `flag:"waves" roles:"router" help:"fanout waves: later waves ship the bound tightened by earlier ones (0 = default)"`
	BootstrapFrom    string        `flag:"bootstrap-from" roles:"shard replica" required:"replica" needs:"corpus-dir" help:"peer base URL to bootstrap the corpus from: snapshot download + WAL tail replay"`
	CCDN             int           `flag:"ccd-n" help:"CCD n-gram size"`
	CCDEta           float64       `flag:"ccd-eta" help:"CCD n-gram containment threshold"`
	CCDEps           float64       `flag:"ccd-eps" help:"CCD similarity threshold (0-100)"`
	CorpusDir        string        `flag:"corpus-dir" roles:"single shard replica" help:"directory for the durable corpus (empty = in-memory only)"`
	SnapshotInterval time.Duration `flag:"snapshot-interval" roles:"single shard replica" needs:"corpus-dir" help:"periodic snapshot interval (0 = on demand/shutdown only)"`
	MMap             bool          `flag:"mmap" roles:"single shard replica" needs:"corpus-dir" help:"memory-map snapshot segments on restore and after snapshots (zero-copy boot; false = decode to heap)"`
	TraceBuffer      int           `flag:"trace-buffer" help:"completed traces retained for /debug/traces (0 = default)"`
	AdmissionQueue   int           `flag:"admission-queue" help:"admitted requests allowed to wait beyond the worker pool before shedding with 429 (0 = never shed)"`
	RateLimit        float64       `flag:"rate-limit" help:"per-client request rate limit in requests/second on /v1 routes (0 = disabled; clients keyed by X-API-Key, else remote address)"`
	RateBurst        int           `flag:"rate-burst" needs:"rate-limit" help:"per-client burst size"`
	BPFsyncP99       time.Duration `flag:"bp-fsync-p99" roles:"single shard replica" needs:"corpus-dir" help:"rolling WAL fsync p99 above which ingest acks slow down, and that the degradation ladder reads as pressure 1.0 (0 = disabled)"`
	BPMaxDelay       time.Duration `flag:"bp-max-delay" roles:"single shard replica" needs:"corpus-dir bp-fsync-p99" help:"cap on the per-ack delay injected by durability backpressure"`
	MaxDeadline      time.Duration `flag:"max-deadline" help:"clamp on client-declared X-Request-Timeout / ?timeout= budgets"`
	DegradeOff       bool          `flag:"degrade-off" help:"disable the quality-degradation ladder (tier 1 halves a single-query match limit at pressure ≥ 0.75)"`
}

// Defaults returns every flag's default: the only place one is written.
func Defaults() Config {
	return Config{
		Addr:           ":8070",
		LogFormat:      "text",
		LogLevel:       "info",
		Role:           "single",
		CCDN:           ccd.DefaultConfig.N,
		CCDEta:         ccd.DefaultConfig.Eta,
		CCDEps:         ccd.DefaultConfig.Epsilon,
		MMap:           true,
		AdmissionQueue: 64,
		RateBurst:      32,
		BPFsyncP99:     50 * time.Millisecond,
		BPMaxDelay:     service.DefaultBackpressureMaxDelay,
		MaxDeadline:    api.DefaultMaxDeadline,
	}
}

var roleNames = []string{"single", "shard", "router", "replica"}

// setting is one Config field with its tags; v addresses the field.
type setting struct {
	name, help, roles, required, needs string
	v                                  reflect.Value
}

// settings returns c's fields as settings, in field order.
func (c *Config) settings() []setting {
	rv := reflect.ValueOf(c).Elem()
	out := make([]setting, rv.NumField())
	for i := range out {
		tag := rv.Type().Field(i).Tag
		out[i] = setting{tag.Get("flag"), tag.Get("help"), tag.Get("roles"), tag.Get("required"), tag.Get("needs"), rv.Field(i)}
	}
	return out
}

// RegisterFlags defines every setting on fs, defaulting to and writing into
// c, with its roles, the roles that require it and the flags it needs.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	for _, s := range c.settings() {
		usage := s.help
		for _, t := range [][2]string{{"roles", s.roles}, {"required by", s.required}, {"needs", s.needs}} {
			if t[1] != "" {
				usage += " [" + t[0] + ": " + t[1] + "]"
			}
		}
		switch p := s.v.Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, s.name, *p, usage)
		case *int:
			fs.IntVar(p, s.name, *p, usage)
		case *float64:
			fs.Float64Var(p, s.name, *p, usage)
		case *bool:
			fs.BoolVar(p, s.name, *p, usage)
		case *time.Duration:
			fs.DurationVar(p, s.name, *p, usage)
		}
	}
}

// has reports whether the space-separated list holds name.
func has(list, name string) bool { return slices.Contains(strings.Fields(list), name) }

// on reports whether a setting is switched on: non-empty, true or positive.
func on(v reflect.Value) bool {
	return !v.IsZero() && !(v.CanInt() && v.Int() < 0) && !(v.CanFloat() && v.Float() < 0)
}

// topology is what Validate parses out of -shards and -partition: the local
// shard count or a router's shard URLs, and partition partIdx of partTotal.
type topology struct {
	shardCount, partIdx, partTotal int
	shardURLs                      []string
}

// Validate reports the first setting that differs from its default on a
// role that does not read it, that lacks a flag it needs, that its role
// requires but is unset, or that does not parse. The error names the flag.
func (c Config) Validate() error {
	_, err := c.plan()
	return err
}

// plan validates c and returns the topology its -shards and -partition
// describe.
func (c Config) plan() (topology, error) {
	var t topology
	if !slices.Contains(roleNames, c.Role) {
		return t, fmt.Errorf("bad -role %q (want %s)", c.Role, strings.Join(roleNames, ", "))
	}
	def := Defaults()
	cs, ds := c.settings(), def.settings()
	for i, s := range cs {
		set := !s.v.Equal(ds[i].v)
		if set && s.roles != "" && !has(s.roles, c.Role) {
			return t, fmt.Errorf("-%s does not apply to -role %s", s.name, c.Role)
		}
		if has(s.required, c.Role) && !on(s.v) {
			return t, fmt.Errorf("-role %s needs -%s", c.Role, s.name)
		}
		for _, p := range cs {
			if set && has(s.needs, p.name) && !on(p.v) {
				return t, fmt.Errorf("-%s needs -%s", s.name, p.name)
			}
		}
	}
	if c.Role == "router" {
		if t.shardURLs = splitList(c.Shards); t.shardURLs == nil {
			return t, fmt.Errorf("bad -shards %q (want comma-separated shard base URLs)", c.Shards)
		}
	} else if c.Shards != "" {
		n, err := strconv.Atoi(c.Shards)
		if err != nil || n < 0 {
			return t, fmt.Errorf("bad -shards %q (want a non-negative shard count)", c.Shards)
		}
		t.shardCount = n
	}
	if c.Partition != "" {
		if n, err := fmt.Sscanf(c.Partition, "%d/%d", &t.partIdx, &t.partTotal); err != nil || n != 2 || t.partIdx < 0 ||
			t.partIdx >= t.partTotal || fmt.Sprintf("%d/%d", t.partIdx, t.partTotal) != c.Partition {
			return t, fmt.Errorf("bad -partition %q (want i/N with 0 <= i < N)", c.Partition)
		}
	}
	return t, nil
}

// splitList splits a comma-separated flag into trimmed terms, empty ones kept
// in place (-replicas aligns with -shards); an all-empty list returns nil.
func splitList(s string) []string {
	if strings.Trim(s, ", \t") == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Node is a built serve process without its listeners: the engine, the
// store (nil without -corpus-dir), the API handler, the -debug-addr handler
// and Stop, which ends a replica's WAL tail, takes a final snapshot and
// closes the store. Call Stop once, after the listeners have shut down.
type Node struct {
	Engine         *service.Engine
	Store          *service.Store
	Handler, Debug http.Handler
	Stop           func()
}

// Build validates c and builds its node. With -bootstrap-from, an empty
// -corpus-dir first receives the peer's snapshot, and the peer's WAL tail is
// applied over the restored store; a replica keeps tailing until Stop or
// until ctx ends.
func Build(ctx context.Context, c Config, logger *slog.Logger) (*Node, error) {
	t, err := c.plan()
	if err != nil {
		return nil, err
	}
	node := &Node{Stop: func() {}, Engine: service.New(service.Options{
		Workers:      c.Workers,
		CacheEntries: c.Cache,
		Shards:       t.shardCount,
		CCD:          ccd.Config{N: c.CCDN, Eta: c.CCDEta, Epsilon: c.CCDEps},
		Admission:    service.AdmissionConfig{MaxQueue: c.AdmissionQueue},
		Degrade:      service.DegradeConfig{Disabled: c.DegradeOff},
	})}
	opts := []api.Option{api.WithLogger(logger), api.WithMaxDeadline(c.MaxDeadline), api.WithPartition(t.partIdx, t.partTotal),
		api.WithRateLimit(c.RateLimit, c.RateBurst), api.WithTraceBuffer(c.TraceBuffer, 0)}
	switch c.Role {
	case "router":
		opts = append(opts, api.WithRouter(remote.NewRouter(remote.Config{
			Targets: t.shardURLs, Replicas: splitList(c.Replicas), Waves: c.Waves, Epsilon: c.CCDEps})))
	case "replica":
		opts = append(opts, api.WithReplica())
	}
	if c.CorpusDir != "" {
		if err := node.openStore(ctx, c, logger); err != nil {
			return nil, err
		}
		opts = append(opts, api.WithStore(node.Store))
	}
	server := api.NewServer(node.Engine, opts...)
	node.Handler, node.Debug = server.Handler(), server.DebugHandler()
	return node, nil
}

// openStore opens c's durable corpus under the node's engine, bootstrapped
// from -bootstrap-from, and sets Stop to stop what it started.
func (n *Node) openStore(ctx context.Context, c Config, logger *slog.Logger) error {
	peer := remote.NewClient(10 * time.Minute)
	if c.BootstrapFrom != "" {
		if err := bootstrapSnapshot(ctx, c.CorpusDir, c.BootstrapFrom, peer, logger); err != nil {
			return fmt.Errorf("bootstrap from %s: %w", c.BootstrapFrom, err)
		}
	}
	store, err := service.OpenStoreWith(c.CorpusDir, n.Engine.Corpus(), service.StoreOptions{NoMapSegments: !c.MMap})
	if err != nil {
		return err
	}
	info := store.Info()
	logger.Info("corpus restored", "dir", c.CorpusDir, "snapshot_entries", info.RestoredEntries,
		"wal_replayed", info.ReplayedRecords, "torn_tail_cut", info.TornTailCut, "mapped_segments", info.MappedSegments)
	store.SetBackpressure(service.BackpressureConfig{FsyncP99: c.BPFsyncP99, MaxDelay: c.BPMaxDelay})
	stopTail := func() {}
	if c.BootstrapFrom != "" {
		next, epoch, err := applyWALTail(ctx, n.Engine, peer, c.BootstrapFrom, 0, 0)
		if err != nil {
			_ = store.Close() // the tail error is the one to report
			return fmt.Errorf("bootstrap WAL tail from %s: %w", c.BootstrapFrom, err)
		}
		logger.Info("bootstrap complete", "from", c.BootstrapFrom,
			"corpus_entries", n.Engine.Corpus().Len(), "wal_next", next, "wal_epoch", epoch)
		if c.Role == "replica" {
			tailCtx, cancel := context.WithCancel(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				tailReplicaWAL(tailCtx, n.Engine, store, peer, c.BootstrapFrom, next, epoch, logger)
			}()
			stopTail = func() { cancel(); <-done }
		}
	}
	stopAutoSnapshot := func() {}
	if c.SnapshotInterval > 0 {
		stopAutoSnapshot = store.StartAutoSnapshot(c.SnapshotInterval, func(err error) {
			logger.Warn("auto snapshot failed", "err", err)
		})
	}
	n.Store, n.Stop = store, func() {
		stopTail()
		stopAutoSnapshot() // before the final snapshot, so none fires between it and the close
		if info, err := store.Snapshot(); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else {
			logger.Info("final snapshot", "entries", info.Entries, "bytes", info.Bytes)
		}
		if err := store.Close(); err != nil {
			logger.Error("close store failed", "err", err)
		}
	}
	return nil
}
