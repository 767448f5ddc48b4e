// Package index defines the pluggable similarity-backend abstraction under
// the serving corpus. The paper's study compares its n-gram/edit-distance
// clone detector (ccd) against alternative similarity schemes — classic
// ssdeep CTPH digests and the SmartEmbed structural embedding — and this
// package puts all three behind one interface so the service layer can shard,
// snapshot and scatter-gather over any of them.
//
// A Backend indexes Docs and answers top-K similarity queries with per-stage
// pruning statistics. Backends register themselves by name in a process-wide
// registry (Register/New); the service builds one sharded corpus per enabled
// backend and routes /v1/match?backend=... to it.
package index

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/ccd"
)

// Doc is one document offered to a backend: the raw source (when the caller
// has it) plus the precomputed ccd fuzzy fingerprint. Backends derive their
// own forms — the ccd backend indexes the fingerprint, ssdeep digests the
// source, SmartEmbed embeds the parsed AST — so a Doc carries both and each
// backend takes what it needs.
type Doc struct {
	ID     string
	Source string          // raw source; may be empty for fingerprint-only ingest
	FP     ccd.Fingerprint // ccd fuzzy hash; empty only if Source is set
}

// ErrDocUnsupported is returned by Add when a backend cannot index the given
// document form (e.g. SmartEmbed needs parsable source but the doc carries
// only a fingerprint). Callers treat it as a per-document skip, not a
// failure of the ingest.
var ErrDocUnsupported = errors.New("index: document form unsupported by backend")

// Query is one top-K match request shared by every segment and shard the
// query fans out to. Backends cache their derived query form (prepared
// n-grams, digest, embedding) in it via Prepare, so the expensive derivation
// runs once per query instead of once per segment.
type Query struct {
	Doc Doc
	// K bounds the result count; K ≤ 0 collects every match at or above the
	// backend's admission threshold.
	K int
	// Bound, when non-nil, is the scatter-gather admission bound shared
	// across partitions (see ccd.AtomicBound).
	Bound *ccd.AtomicBound
	// Ctx cancels the scatter-gather; backends with long candidate scans
	// should check it periodically. May be nil (treated as Background).
	Ctx context.Context
	// Eta, when positive, overrides the backend's pre-filter bound for this
	// query — degradation tiers raise it to prune harder under pressure.
	Eta float64
	// ScanDeadline, when set, is the instant scan loops must abandon work
	// and return whatever they have collected so far (the request budget's
	// scan phase; the remainder is reserved for merge and encoding).
	ScanDeadline time.Time

	prepOnce sync.Once
	prepared any
}

// Prepare returns the backend-derived query form, computing it at most once
// across all concurrent segment scans of this query. All segments of one
// scatter-gather share a backend kind, so a single slot suffices.
func (q *Query) Prepare(f func() any) any {
	q.prepOnce.Do(func() { q.prepared = f() })
	return q.prepared
}

// Done reports whether the query's context has been cancelled.
func (q *Query) Done() bool {
	return q.Ctx != nil && q.Ctx.Err() != nil
}

// Expired reports whether the query's scan-phase budget has run out. Cheap
// enough to call at segment boundaries; candidate loops should sample it
// every few dozen iterations rather than per candidate.
func (q *Query) Expired() bool {
	return !q.ScanDeadline.IsZero() && !time.Now().Before(q.ScanDeadline)
}

// Config parameterizes a backend instance.
type Config struct {
	// CCD carries the clone-detector parameters (n-gram size, η, ε). The
	// ccd backend uses all of them; other backends read only the scale.
	CCD ccd.Config
	// Epsilon overrides the admission threshold (0-100 score scale) when
	// positive; 0 selects the backend's default (CCD.Epsilon for ccd and
	// ssdeep, 90 — cosine 0.9 — for smartembed).
	Epsilon float64
}

// Backend is one similarity-matching implementation over fingerprinted
// documents. Implementations are NOT internally synchronized: the service
// layer builds immutable segments (write once via Add/Restore, then only
// read), so MatchTopK and Snapshot may run concurrently with each other but
// never with Add.
type Backend interface {
	// Name returns the registry name ("ccd", "ssdeep", "smartembed").
	Name() string
	// Config returns the effective configuration (after Restore, the
	// snapshot's configuration).
	Config() Config
	// Epsilon returns the effective admission threshold on the 0-100 score
	// scale (Config().Epsilon when positive, else the backend's default).
	Epsilon() float64
	// Add indexes one document. ErrDocUnsupported marks a per-doc skip.
	Add(doc Doc) error
	// Len returns the number of indexed documents.
	Len() int
	// MatchTopK streams the backend's candidates for q and returns the
	// query's k best matches (best first, score descending, ties by id
	// ascending) plus per-stage pruning statistics.
	MatchTopK(q *Query) ([]ccd.Match, ccd.MatchStats)
	// Merge returns a new backend of the same kind holding every document
	// of the receiver followed by every document of each of others, in
	// argument order (compaction: a whole merge cascade is one build).
	Merge(others ...Backend) (Backend, error)
	// Snapshot writes the backend's documents in its binary format.
	Snapshot(w io.Writer) error
	// Restore replaces the backend's state (which must be empty) with a
	// snapshot produced by the same kind of backend.
	Restore(r io.Reader) error
}

// EntryLister is implemented by backends that can enumerate their indexed
// (id, fingerprint) pairs — the ccd backend. The service's WAL-replay
// deduplication, shard re-partitioning and corpus self-join depend on it.
type EntryLister interface {
	Entries() []ccd.Entry
}

// IDLister is implemented by backends that can enumerate their indexed
// document ids (all built-in backends). The service's duplicate-id supersede
// uses it to seed the per-shard live-id set after a snapshot restore.
type IDLister interface {
	IDs() []string
}

// SourceOnlyMatcher marks backends whose queries need the document source:
// a fingerprint-only query silently matches nothing (SmartEmbed embeds
// compiled source). The corpus self-join enumerates (id, fingerprint)
// pairs, so it rejects such backends up front — completing against one
// would report an all-singleton distribution indistinguishable from a
// genuinely clone-free corpus.
type SourceOnlyMatcher interface {
	RequiresSourceQueries()
}

// EntryRemover is implemented by backends that can rebuild themselves
// without a set of document ids. The service uses it when a re-ingested id
// supersedes an earlier copy living in an older generation-segment: the
// stale segment is rebuilt without the dead entries, so a duplicate Add
// replaces instead of double-counting. Returns the rebuilt backend and how
// many entries were dropped; a backend containing none of the ids returns
// itself unchanged with 0.
type EntryRemover interface {
	WithoutIDs(dead map[string]struct{}) (Backend, int)
}

// SegmentOpener is implemented by backends whose snapshot format doubles as
// a runtime segment: OpenSegment replaces the backend's (empty) state with an
// immutable view reading zero-copy out of data — typically a memory-mapped
// snapshot file — instead of decoding it to the heap. ref is retained for the
// segment's lifetime to pin data's owner (the mapping holder). Only the ccd
// backend implements it today.
type SegmentOpener interface {
	OpenSegment(data []byte, ref any) error
}

// MappedReporter is implemented by backends that can report whether their
// index currently reads zero-copy out of caller-owned bytes. The service
// surfaces the count of mapped segments in its stats.
type MappedReporter interface {
	MappedSegment() bool
}

// entryIDs collects the document ids of a backend's entry slice — the
// shared body of the IDLister implementations.
func entryIDs[E any](entries []E, id func(E) string) []string {
	out := make([]string, len(entries))
	for i := range entries {
		out[i] = id(entries[i])
	}
	return out
}

// withoutIDs filters a backend's entry slice for its EntryRemover: the
// surviving entries (order preserved) and how many were dropped. removed==0
// returns the input slice untouched, so callers can keep the original
// backend.
func withoutIDs[E any](entries []E, id func(E) string, dead map[string]struct{}) (live []E, removed int) {
	for i := range entries {
		if _, dup := dead[id(entries[i])]; dup {
			removed++
		}
	}
	if removed == 0 {
		return entries, 0
	}
	live = make([]E, 0, len(entries)-removed)
	for i := range entries {
		if _, dup := dead[id(entries[i])]; dup {
			continue
		}
		live = append(live, entries[i])
	}
	return live, removed
}

// --- registry -----------------------------------------------------------------

// Factory builds an empty backend under cfg.
type Factory func(cfg Config) Backend

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a backend factory under name. Called from init()
// functions of the adapter files; duplicate names panic.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("index: backend %q registered twice", name))
	}
	registry[name] = f
}

// New builds an empty backend by registry name.
func New(name string, cfg Config) (Backend, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("index: unknown backend %q (known: %v)", name, Names())
	}
	return f(cfg), nil
}

// Known reports whether name is a registered backend.
func Known(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
