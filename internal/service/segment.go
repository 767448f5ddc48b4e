package service

import (
	"fmt"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/ccd"
)

// This file is the zero-copy boot path: instead of decoding a snapshot
// through ReadSnapshot (every posting list to the heap), the snapshot file is
// memory-mapped and each segment opens directly over its framed byte range.
// That makes restore a validation pass — posting lists are queried in place
// out of the page cache — so a million-document corpus boots in the time it
// takes to checksum the file, and cold pages are only faulted in when queries
// touch them.

// parseSnapshotEnvelope splits a snapshot held in data into its
// configuration and per-shard framed segment byte ranges. The returned slices
// alias data. This is the one envelope parser: the heap restore
// (ReadSnapshot), the mapped boot (OpenSnapshotFile) and the live remap all
// go through it.
func parseSnapshotEnvelope(data []byte) (cfg ccd.Config, perShard [][][]byte, err error) {
	if len(data) < len(corpusSnapshotMagic)+1 {
		return cfg, nil, fmt.Errorf("service: snapshot: %d bytes is too short", len(data))
	}
	if string(data[:len(corpusSnapshotMagic)]) != corpusSnapshotMagic {
		return cfg, nil, fmt.Errorf("service: snapshot: bad magic %q", data[:len(corpusSnapshotMagic)])
	}
	r := binfmt.NewCursor(data[len(corpusSnapshotMagic):], "service: snapshot:")
	version := r.Uvarint("version")
	if r.Err() != nil {
		return cfg, nil, r.Err()
	}
	if version != CorpusSnapshotVersion {
		return cfg, nil, fmt.Errorf("service: snapshot: unsupported version %d (want %d)", version, CorpusSnapshotVersion)
	}
	backend := r.Str(256, "backend name")
	cfg.N = int(r.Uvarint("config N"))
	cfg.Eta = r.Float64("config Eta")
	cfg.Epsilon = r.Float64("config Epsilon")
	override := r.Float64("backend Epsilon")
	shardCount := r.Uvarint("shard count")
	if r.Err() != nil {
		return cfg, nil, r.Err()
	}
	if backend != BackendCCD {
		return cfg, nil, fmt.Errorf("service: snapshot holds backend %q, this corpus serves %q only", backend, BackendCCD)
	}
	if override != 0 {
		return cfg, nil, fmt.Errorf("service: snapshot: non-zero backend threshold override %v", override)
	}
	if shardCount == 0 || shardCount > maxSnapshotShards {
		return cfg, nil, fmt.Errorf("service: snapshot: implausible shard count %d", shardCount)
	}
	perShard = make([][][]byte, shardCount)
	for i := range perShard {
		segCount := r.Uvarint("segment count")
		if r.Err() == nil && segCount > 1<<16 {
			return cfg, nil, fmt.Errorf("service: snapshot: shard %d implausible segment count %d", i, segCount)
		}
		perShard[i] = make([][]byte, segCount)
		for j := range perShard[i] {
			size := r.Uvarint("segment length")
			if r.Err() == nil && size > maxSegmentBytes {
				return cfg, nil, fmt.Errorf("service: snapshot: shard %d segment %d length %d exceeds limit", i, j, size)
			}
			perShard[i][j] = r.Take(size, "segment")
		}
		if r.Err() != nil {
			return cfg, nil, r.Err()
		}
	}
	if r.Len() != 0 {
		return cfg, nil, fmt.Errorf("service: snapshot: %d trailing bytes", r.Len())
	}
	return cfg, perShard, nil
}

// OpenSnapshotFile restores a snapshot file into this (empty) corpus through
// the zero-copy path: the file is memory-mapped (heap-read on platforms
// without mmap support) and segments open directly over the mapped bytes, so
// restore costs a validation pass instead of an index rebuild. The mapping
// stays referenced for as long as any segment reads from it.
func (c *Corpus) OpenSnapshotFile(path string) error {
	data, ref, err := mapFile(path)
	if err != nil {
		return err
	}
	cfg, perShard, err := parseSnapshotEnvelope(data)
	if err != nil {
		return err
	}
	return c.installSnapshotWith(cfg, perShard, func(seg []byte) (*ccd.Corpus, error) {
		return ccd.OpenSegmentBytes(seg, ref) // each segment retains ref, pinning the mapping
	})
}

// remapSnapshot atomically swaps the corpus's published generations for
// zero-copy segments opened over the just-written snapshot at path. The
// corpus content must equal the snapshot's (the caller quiesces ingest around
// Snapshot; Store.Snapshot calls this right after writing the file), which is
// verified per shard by size before any pointer swings (on a mismatch the
// corpus is left untouched). No document changes, so Generation stays.
func (c *Corpus) remapSnapshot(path string) error {
	data, ref, err := mapFile(path)
	if err != nil {
		return err
	}
	cfg, perShard, err := parseSnapshotEnvelope(data)
	if err != nil {
		return err
	}
	if cfg != c.cfg {
		return fmt.Errorf("service: remap: snapshot config %+v differs from corpus %+v", cfg, c.cfg)
	}
	if len(perShard) != len(c.shards) {
		return fmt.Errorf("service: remap: snapshot has %d shards, corpus %d", len(perShard), len(c.shards))
	}
	install := make([][]*ccd.Corpus, len(c.shards))
	for i := range perShard {
		segs := make([]*ccd.Corpus, 0, len(perShard[i]))
		for j := range perShard[i] {
			seg, err := ccd.OpenSegmentBytes(perShard[i][j], ref)
			if err != nil {
				return fmt.Errorf("service: remap: shard %d segment %d: %w", i, j, err)
			}
			if seg.Len() > 0 {
				segs = append(segs, seg)
			}
		}
		slices.SortStableFunc(segs, func(a, b *ccd.Corpus) int { return b.Len() - a.Len() })
		install[i] = segs
	}
	// Verify every shard before swinging any pointer.
	for i, sh := range c.shards {
		size := 0
		for _, s := range install[i] {
			size += s.Len()
		}
		if got := sh.gen.Load().size; got != size {
			return fmt.Errorf("service: remap: shard %d holds %d docs, snapshot %d", i, got, size)
		}
	}
	for i, sh := range c.shards {
		size := 0
		for _, s := range install[i] {
			size += s.Len()
		}
		sh.pubMu.Lock()
		old := sh.gen.Load()
		sh.gen.Store(&generation{segments: install[i], size: size, seq: old.seq})
		sh.pubMu.Unlock()
	}
	c.remaps.Add(1)
	return nil
}

// MappedSegments counts published segments currently reading zero-copy out
// of a mapped snapshot (diagnostics; surfaces in /metrics via store stats).
func (c *Corpus) MappedSegments() int {
	n := 0
	for _, sh := range c.shards {
		for _, seg := range sh.gen.Load().segments {
			if seg.Mapped() {
				n++
			}
		}
	}
	return n
}

// Remaps reports how many times the corpus swapped its generations onto a
// freshly written snapshot mapping.
func (c *Corpus) Remaps() int64 { return c.remaps.Load() }
