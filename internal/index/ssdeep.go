package index

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ccd"
	"repro/internal/editdist"
	"repro/internal/ssdeep"
)

// BackendSSDeep is the registry name of the classic context-triggered
// piecewise-hashing comparator from the paper's evaluation: each document is
// condensed to a whole-input CTPH digest ("blocksize:sig1:sig2") and two
// documents are scored by edit-distance similarity over their comparable
// signatures, following the original ssdeep comparison rules (signatures are
// comparable when their block sizes are equal or differ by exactly 2×).
const BackendSSDeep = "ssdeep"

func init() {
	Register(BackendSSDeep, func(cfg Config) Backend {
		if cfg.CCD.N == 0 {
			cfg.CCD = ccd.DefaultConfig
		}
		return &ssdeepBackend{cfg: cfg}
	})
}

type ssdEntry struct {
	id     string
	digest ssdDigest
}

// ssdDigest is one parsed CTPH digest.
type ssdDigest struct {
	bs         int
	sig1, sig2 string
}

func (d ssdDigest) String() string {
	return strconv.Itoa(d.bs) + ":" + d.sig1 + ":" + d.sig2
}

func parseDigest(s string) (ssdDigest, error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return ssdDigest{}, fmt.Errorf("index: malformed ssdeep digest %q", s)
	}
	bs, err := strconv.Atoi(parts[0])
	if err != nil || bs < ssdeep.MinBlockSize {
		return ssdDigest{}, fmt.Errorf("index: bad ssdeep block size in %q", s)
	}
	return ssdDigest{bs: bs, sig1: parts[1], sig2: parts[2]}, nil
}

// digestDoc derives the CTPH digest of a document from its canonical
// representation: the ccd fingerprint when present (a token-per-character
// stream), else the raw source. The fingerprint is preferred because the
// same document reaches this backend in different shapes — ingest carries
// source plus fingerprint, while bulk fingerprint loads and the corpus
// self-join query by fingerprint alone. Digesting the source on one side
// and the (much shorter) fingerprint on the other let the adaptive block
// sizes diverge beyond the 2× comparison window, so the block-size
// compatibility rule produced zero comparable pairs — and score 0 — for
// literally identical documents; on very short inputs the block sizes still
// agreed but the signatures differed, with the same zero-score result.
func digestDoc(doc Doc) ssdDigest {
	data := []byte(doc.FP)
	if len(data) == 0 {
		data = []byte(doc.Source)
	}
	d, _ := parseDigest(ssdeep.Hash(data))
	return d
}

// ssdeepBackend scores classic CTPH digests with edit-distance similarity.
type ssdeepBackend struct {
	cfg     Config
	entries []ssdEntry
}

func (b *ssdeepBackend) Name() string   { return BackendSSDeep }
func (b *ssdeepBackend) Config() Config { return b.cfg }
func (b *ssdeepBackend) Len() int       { return len(b.entries) }

// Epsilon returns the effective admission threshold.
func (b *ssdeepBackend) Epsilon() float64 {
	if b.cfg.Epsilon > 0 {
		return b.cfg.Epsilon
	}
	return b.cfg.CCD.Epsilon
}

func (b *ssdeepBackend) Add(doc Doc) error {
	if doc.Source == "" && doc.FP == "" {
		return fmt.Errorf("%w: ssdeep needs a source or fingerprint", ErrDocUnsupported)
	}
	b.entries = append(b.entries, ssdEntry{id: doc.ID, digest: digestDoc(doc)})
	return nil
}

// comparePairs yields the signature pairs the classic ssdeep comparison
// admits for two digests: same block size compares sig1↔sig1 and sig2↔sig2;
// a 2× block-size gap compares the finer digest's coarse signature with the
// coarser digest's fine one. Anything further apart is incomparable (score 0).
func comparePairs(a, b ssdDigest) [][2]string {
	switch {
	case a.bs == b.bs:
		return [][2]string{{a.sig1, b.sig1}, {a.sig2, b.sig2}}
	case a.bs == 2*b.bs:
		return [][2]string{{a.sig1, b.sig2}}
	case b.bs == 2*a.bs:
		return [][2]string{{a.sig2, b.sig1}}
	}
	return nil
}

// pairUpper is a cheap upper bound on editdist.Similarity: edit distance is
// at least the length difference, so δ ≤ (maxLen − |Δlen|)/maxLen · 100.
func pairUpper(s1, s2 string) float64 {
	ml := max(len(s1), len(s2))
	if ml == 0 {
		return 100
	}
	diff := len(s1) - len(s2)
	if diff < 0 {
		diff = -diff
	}
	return float64(ml-diff) / float64(ml) * 100
}

func (b *ssdeepBackend) MatchTopK(q *Query) ([]ccd.Match, ccd.MatchStats) {
	qd := q.Prepare(func() any { return digestDoc(q.Doc) }).(ssdDigest)
	col := ccd.NewTopK(q.K, b.Epsilon()).Share(q.Bound)
	// Funnel semantics match the ccd backend: Candidates are the entries
	// that survive the (block-size compatibility) pre-filter, FilterPruned
	// the ones it rejected — Candidates = Scored + CutoffSkipped.
	var stats ccd.MatchStats
	for i, e := range b.entries {
		if i%1024 == 1023 && q.Done() {
			break
		}
		pairs := comparePairs(qd, e.digest)
		if len(pairs) == 0 {
			stats.FilterPruned++
			continue
		}
		stats.Candidates++
		bound := col.Bound()
		best := 0.0
		scored := false
		for _, p := range pairs {
			if pairUpper(p[0], p[1]) < bound {
				continue
			}
			scored = true
			if s := editdist.Similarity(p[0], p[1]); s > best {
				best = s
			}
		}
		if !scored {
			stats.CutoffSkipped++
			continue
		}
		stats.Scored++
		col.Offer(ccd.Match{ID: e.id, Score: best})
	}
	return col.Results(), stats
}

// IDs enumerates the indexed document ids (IDLister).
func (b *ssdeepBackend) IDs() []string {
	return entryIDs(b.entries, func(e ssdEntry) string { return e.id })
}

// WithoutIDs rebuilds the segment without the dead ids (EntryRemover).
func (b *ssdeepBackend) WithoutIDs(dead map[string]struct{}) (Backend, int) {
	live, removed := withoutIDs(b.entries, func(e ssdEntry) string { return e.id }, dead)
	if removed == 0 {
		return b, 0
	}
	return &ssdeepBackend{cfg: b.cfg, entries: live}, removed
}

func (b *ssdeepBackend) Merge(others ...Backend) (Backend, error) {
	out := &ssdeepBackend{cfg: b.cfg, entries: slices.Clone(b.entries)}
	for _, other := range others {
		o, ok := other.(*ssdeepBackend)
		if !ok {
			return nil, fmt.Errorf("index: merge ssdeep with %s", other.Name())
		}
		out.entries = append(out.entries, o.entries...)
	}
	return out, nil
}

// Snapshot format: magic "SSDSNAP\x00", uvarint version, uvarint entry
// count, per entry the id and digest strings, trailing CRC-32 of everything
// before it (shared framing in codec.go).
const ssdeepMagic = "SSDSNAP\x00"

func (b *ssdeepBackend) Snapshot(w io.Writer) error {
	return writeFramed(w, ssdeepMagic, len(b.entries), func(enc *frameEncoder) error {
		for _, e := range b.entries {
			if err := enc.writeString(e.id); err != nil {
				return err
			}
			if err := enc.writeString(e.digest.String()); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *ssdeepBackend) Restore(r io.Reader) error {
	if len(b.entries) != 0 {
		return fmt.Errorf("index: restore into non-empty ssdeep backend (%d entries)", len(b.entries))
	}
	return readFramed(r, ssdeepMagic, func(dec *frameDecoder, count int) error {
		entries := make([]ssdEntry, 0, min(count, maxPrealloc))
		for i := 0; i < count; i++ {
			id, err := dec.readString()
			if err != nil {
				return err
			}
			raw, err := dec.readString()
			if err != nil {
				return err
			}
			d, err := parseDigest(raw)
			if err != nil {
				return err
			}
			entries = append(entries, ssdEntry{id: id, digest: d})
		}
		b.entries = entries
		return nil
	})
}
