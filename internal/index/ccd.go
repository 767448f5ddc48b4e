package index

import (
	"fmt"
	"io"

	"repro/internal/ccd"
)

// BackendCCD is the registry name of the paper's n-gram/edit-distance clone
// detector — the default backend and the only one with a durable on-disk
// representation (the WAL journals (id, fingerprint) pairs, which is exactly
// what this backend indexes).
const BackendCCD = "ccd"

func init() {
	Register(BackendCCD, func(cfg Config) Backend {
		if cfg.CCD.N == 0 {
			cfg.CCD = ccd.DefaultConfig
		}
		return &ccdBackend{cfg: cfg, c: ccd.NewCorpus(cfg.CCD)}
	})
}

// ccdBackend adapts *ccd.Corpus (posting-list pre-filter + Algorithm-1
// scoring) to the Backend interface.
type ccdBackend struct {
	cfg Config
	c   *ccd.Corpus
}

func (b *ccdBackend) Name() string   { return BackendCCD }
func (b *ccdBackend) Config() Config { return b.cfg }
func (b *ccdBackend) Len() int       { return b.c.Len() }

// Entries exposes the indexed (id, fingerprint) pairs for WAL-replay
// deduplication, shard re-partitioning and the corpus self-join
// (EntryLister).
func (b *ccdBackend) Entries() []ccd.Entry { return b.c.Entries() }

// IDs enumerates the indexed document ids (IDLister).
func (b *ccdBackend) IDs() []string {
	return entryIDs(b.c.Entries(), func(e ccd.Entry) string { return e.ID })
}

// WithoutIDs rebuilds the segment without the dead ids (EntryRemover). The
// n-gram index cannot delete in place, so the survivors re-index into a
// fresh corpus.
func (b *ccdBackend) WithoutIDs(dead map[string]struct{}) (Backend, int) {
	live, removed := withoutIDs(b.c.Entries(), func(e ccd.Entry) string { return e.ID }, dead)
	if removed == 0 {
		return b, 0
	}
	out := ccd.NewCorpus(b.cfg.CCD)
	for _, e := range live {
		out.Add(e.ID, e.FP)
	}
	return &ccdBackend{cfg: b.cfg, c: out}, removed
}

func (b *ccdBackend) Add(doc Doc) error {
	fp := doc.FP
	if fp == "" {
		if doc.Source == "" {
			return fmt.Errorf("%w: ccd needs a fingerprint or source", ErrDocUnsupported)
		}
		fp, _ = ccd.FingerprintSource(doc.Source) // partial fp still indexes
	}
	b.c.Add(doc.ID, fp)
	return nil
}

func (b *ccdBackend) MatchTopK(q *Query) ([]ccd.Match, ccd.MatchStats) {
	prep := q.Prepare(func() any {
		fp := q.Doc.FP
		if fp == "" {
			fp, _ = ccd.FingerprintSource(q.Doc.Source)
		}
		return ccd.PrepareQuery(b.cfg.CCD, fp)
	}).(*ccd.PreparedQuery)
	col := ccd.NewTopK(q.K, b.Epsilon()).Share(q.Bound)
	opts := ccd.MatchOpts{Eta: q.Eta}
	if !q.ScanDeadline.IsZero() {
		opts.Abandon = q.Expired
	}
	mb := ccd.GetMatchBuffer()
	stats := b.c.MatchPreparedOptsBuf(prep, col, mb, opts)
	mb.Release()
	return col.Results(), stats
}

// Epsilon returns the effective admission threshold.
func (b *ccdBackend) Epsilon() float64 {
	if b.cfg.Epsilon > 0 {
		return b.cfg.Epsilon
	}
	return b.cfg.CCD.Epsilon
}

// Merge re-indexes every entry once: the n-gram index cannot be spliced, so
// one build over all inputs replaces a build per cascade step.
func (b *ccdBackend) Merge(others ...Backend) (Backend, error) {
	out := ccd.NewCorpus(b.cfg.CCD)
	for _, part := range append([]Backend{b}, others...) {
		p, ok := part.(*ccdBackend)
		if !ok {
			return nil, fmt.Errorf("index: merge ccd with %s", part.Name())
		}
		for _, e := range p.c.Entries() {
			out.Add(e.ID, e.FP)
		}
	}
	return &ccdBackend{cfg: b.cfg, c: out}, nil
}

func (b *ccdBackend) Snapshot(w io.Writer) error { return b.c.Save(w) }

// OpenSegment replaces the (empty) backend with an immutable segment reading
// its posting lists zero-copy out of data (SegmentOpener). ref pins data's
// owner — typically the mmap holder — for the segment's lifetime.
func (b *ccdBackend) OpenSegment(data []byte, ref any) error {
	if b.c.Len() != 0 {
		return fmt.Errorf("index: open segment into non-empty ccd backend (%d entries)", b.c.Len())
	}
	c, err := ccd.OpenSegmentBytes(data, ref)
	if err != nil {
		return err
	}
	b.c = c
	b.cfg.CCD = c.Config()
	return nil
}

// MappedSegment reports whether the backend reads its index zero-copy out of
// caller-owned bytes (MappedReporter).
func (b *ccdBackend) MappedSegment() bool { return b.c.Mapped() }

func (b *ccdBackend) Restore(r io.Reader) error {
	if b.c.Len() != 0 {
		return fmt.Errorf("index: restore into non-empty ccd backend (%d entries)", b.c.Len())
	}
	c, err := ccd.Load(r)
	if err != nil {
		return err
	}
	b.c = c
	b.cfg.CCD = c.Config()
	return nil
}
