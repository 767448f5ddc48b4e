package index

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/baseline"
	"repro/internal/ccd"
)

// BackendSmartEmbed is the registry name of the SmartEmbed structural-
// embedding comparator (Gao et al., ICSME 2019 — the paper's Table 3
// baseline): documents are embedded as damped bags of AST features and
// scored by cosine similarity, reported on the service's 0-100 scale.
//
// Like the original tool, it needs complete, parsable source: documents
// carrying only a fingerprint are skipped (ErrDocUnsupported), and a query
// without parsable source matches nothing.
const BackendSmartEmbed = "smartembed"

// smartEmbedDefaultEpsilon is the recommended cosine cut-off (0.9) on the
// 0-100 score scale.
const smartEmbedDefaultEpsilon = 90

func init() {
	Register(BackendSmartEmbed, func(cfg Config) Backend {
		if cfg.CCD.N == 0 {
			cfg.CCD = ccd.DefaultConfig
		}
		return &smartEmbedBackend{cfg: cfg, se: baseline.NewSmartEmbed()}
	})
}

type embEntry struct {
	id  string
	emb baseline.Embedding
}

type smartEmbedBackend struct {
	cfg     Config
	se      *baseline.SmartEmbed
	entries []embEntry
}

func (b *smartEmbedBackend) Name() string   { return BackendSmartEmbed }
func (b *smartEmbedBackend) Config() Config { return b.cfg }
func (b *smartEmbedBackend) Len() int       { return len(b.entries) }

// Epsilon returns the effective admission threshold.
func (b *smartEmbedBackend) Epsilon() float64 {
	if b.cfg.Epsilon > 0 {
		return b.cfg.Epsilon
	}
	return smartEmbedDefaultEpsilon
}

// RequiresSourceQueries marks the backend SourceOnlyMatcher: queries carry
// an embedding derived from compiled source, so a fingerprint-only query
// matches nothing.
func (b *smartEmbedBackend) RequiresSourceQueries() {}

func (b *smartEmbedBackend) Add(doc Doc) error {
	if doc.Source == "" {
		return fmt.Errorf("%w: smartembed needs source", ErrDocUnsupported)
	}
	emb, err := b.se.Embed(doc.Source)
	if err != nil {
		return fmt.Errorf("%w: smartembed: %v", ErrDocUnsupported, err)
	}
	b.entries = append(b.entries, embEntry{id: doc.ID, emb: emb})
	return nil
}

// prepared caches the query embedding; ok is false when the query source is
// missing or not compilable (such queries match nothing).
type embQuery struct {
	emb baseline.Embedding
	ok  bool
}

func (b *smartEmbedBackend) MatchTopK(q *Query) ([]ccd.Match, ccd.MatchStats) {
	pq := q.Prepare(func() any {
		if q.Doc.Source == "" {
			return embQuery{}
		}
		emb, err := b.se.Embed(q.Doc.Source)
		return embQuery{emb: emb, ok: err == nil}
	}).(embQuery)
	var stats ccd.MatchStats
	if !pq.ok {
		return nil, stats
	}
	col := ccd.NewTopK(q.K, b.Epsilon()).Share(q.Bound)
	// No pre-filter: every entry is a candidate and is fully scored, so
	// Candidates = Scored (the ccd funnel invariant with zero pruning).
	for i, e := range b.entries {
		if i%1024 == 1023 && q.Done() {
			break
		}
		stats.Candidates++
		stats.Scored++
		col.Offer(ccd.Match{ID: e.id, Score: baseline.Cosine(pq.emb, e.emb) * 100})
	}
	return col.Results(), stats
}

// IDs enumerates the indexed document ids (IDLister).
func (b *smartEmbedBackend) IDs() []string {
	return entryIDs(b.entries, func(e embEntry) string { return e.id })
}

// WithoutIDs rebuilds the segment without the dead ids (EntryRemover).
func (b *smartEmbedBackend) WithoutIDs(dead map[string]struct{}) (Backend, int) {
	live, removed := withoutIDs(b.entries, func(e embEntry) string { return e.id }, dead)
	if removed == 0 {
		return b, 0
	}
	return &smartEmbedBackend{cfg: b.cfg, se: b.se, entries: live}, removed
}

func (b *smartEmbedBackend) Merge(others ...Backend) (Backend, error) {
	out := &smartEmbedBackend{cfg: b.cfg, se: b.se, entries: slices.Clone(b.entries)}
	for _, other := range others {
		o, ok := other.(*smartEmbedBackend)
		if !ok {
			return nil, fmt.Errorf("index: merge smartembed with %s", other.Name())
		}
		out.entries = append(out.entries, o.entries...)
	}
	return out, nil
}

// Snapshot format: shared framing, per entry the id, the feature count, and
// (key, damped value) pairs; the norm is recomputed on restore.
const smartEmbedMagic = "SMESNAP\x00"

func (b *smartEmbedBackend) Snapshot(w io.Writer) error {
	return writeFramed(w, smartEmbedMagic, len(b.entries), func(enc *frameEncoder) error {
		for _, e := range b.entries {
			if err := enc.writeString(e.id); err != nil {
				return err
			}
			feats := e.emb.Features()
			if err := enc.writeUvarint(uint64(len(feats))); err != nil {
				return err
			}
			for _, k := range sortedKeys(feats) {
				if err := enc.writeString(k); err != nil {
					return err
				}
				if err := enc.writeFloat(feats[k]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (b *smartEmbedBackend) Restore(r io.Reader) error {
	if len(b.entries) != 0 {
		return fmt.Errorf("index: restore into non-empty smartembed backend (%d entries)", len(b.entries))
	}
	return readFramed(r, smartEmbedMagic, func(dec *frameDecoder, count int) error {
		entries := make([]embEntry, 0, min(count, maxPrealloc))
		for i := 0; i < count; i++ {
			id, err := dec.readString()
			if err != nil {
				return err
			}
			nf, err := dec.readUvarint()
			if err != nil {
				return err
			}
			if nf > maxPrealloc {
				return fmt.Errorf("index: implausible feature count %d", nf)
			}
			feats := make(map[string]float64, nf)
			for j := uint64(0); j < nf; j++ {
				k, err := dec.readString()
				if err != nil {
					return err
				}
				v, err := dec.readFloat()
				if err != nil {
					return err
				}
				feats[k] = v
			}
			entries = append(entries, embEntry{id: id, emb: baseline.EmbeddingFromFeatures(feats)})
		}
		b.entries = entries
		return nil
	})
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Deterministic snapshots: map iteration order is randomized.
	sort.Strings(out)
	return out
}
