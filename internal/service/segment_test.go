package service

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ccd"
)

// writeSnapshotFile persists c to a snapshot file inside a temp dir.
func writeSnapshotFile(t *testing.T, c *Corpus) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), SnapshotFile)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedSnapshotRestoreEquivalence: the zero-copy OpenSnapshotFile boot
// and the heap ReadSnapshot boot must be observably identical — same
// size, same entry multiset, same MatchTopK results across the k sweep — and
// the mapped corpus must actually read zero-copy (MappedSegments > 0).
func TestMappedSnapshotRestoreEquivalence(t *testing.T) {
	fps := randomFingerprints(41, 300)
	builder := NewCorpus(ccd.DefaultConfig, 3)
	for i, fp := range fps {
		if err := builder.Add(fmt.Sprintf("doc-%03d", i), fp); err != nil {
			t.Fatal(err)
		}
	}
	path := writeSnapshotFile(t, builder)

	mapped := NewCorpus(ccd.DefaultConfig, 3)
	if err := mapped.OpenSnapshotFile(path); err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	heap := NewCorpus(ccd.DefaultConfig, 3)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.ReadSnapshot(f); err != nil {
		t.Fatalf("heap restore: %v", err)
	}
	f.Close()

	if mapped.Len() != builder.Len() || heap.Len() != builder.Len() {
		t.Fatalf("sizes drifted: mapped=%d heap=%d builder=%d", mapped.Len(), heap.Len(), builder.Len())
	}
	if mapped.MappedSegments() == 0 {
		t.Fatal("no mapped segments after OpenSnapshotFile")
	}
	if !reflect.DeepEqual(mapped.entryMultiset(), builder.entryMultiset()) {
		t.Fatal("mapped restore changed the entry multiset")
	}
	queries := randomFingerprints(43, 8)
	queries = append(queries, fps[0], fps[150])
	for qi, q := range queries {
		for _, k := range []int{1, 10, 100, 0} {
			want, _ := heap.MatchTopK(q, k)
			got, _ := mapped.MatchTopK(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d k=%d: mapped %v != heap %v", qi, k, got, want)
			}
		}
	}
}

// TestMappedShardedEquivalence: the sharded scatter-gather over mapped
// segments returns exactly the single-corpus reference prefix — the sharded
// equivalence property re-pinned over the compressed, memory-mapped path.
func TestMappedShardedEquivalence(t *testing.T) {
	const docs = 160
	fps := randomFingerprints(11, docs)
	single := ccd.NewCorpus(ccd.DefaultConfig)
	builder := NewCorpus(ccd.DefaultConfig, 4)
	for i, fp := range fps {
		id := fmt.Sprintf("doc-%03d", i)
		single.Add(id, fp)
		if err := builder.Add(id, fp); err != nil {
			t.Fatal(err)
		}
	}
	mapped := NewCorpus(ccd.DefaultConfig, 4)
	if err := mapped.OpenSnapshotFile(writeSnapshotFile(t, builder)); err != nil {
		t.Fatal(err)
	}
	queries := randomFingerprints(23, 10)
	queries = append(queries, fps[0], fps[docs/2])
	for qi, q := range queries {
		reference := single.Match(q)
		ccd.SortMatches(reference)
		for _, k := range []int{1, 2, 3, 5, 10, 100, 0} {
			got, _ := mapped.MatchTopK(q, k)
			want := reference
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d k=%d:\n got %v\nwant %v", qi, k, got, want)
			}
		}
	}
}

// TestStoreMappedBootAndRemap drives the full store lifecycle over the
// mapped path: boot from a snapshot maps segments; Snapshot remaps the
// published generations onto the freshly written file; ingest after a remap
// lands in new delta segments on top of the mapping and stays queryable.
func TestStoreMappedBootAndRemap(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	s, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := c.Add(fmt.Sprintf("doc-%02d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := c.Remaps(); got != 1 {
		t.Fatalf("remaps after snapshot: %d, want 1", got)
	}
	if c.MappedSegments() == 0 {
		t.Fatal("no mapped segments after post-snapshot remap")
	}
	if s.remapFailures.Load() != 0 {
		t.Fatalf("remap failures: %d", s.remapFailures.Load())
	}
	// Ingest after the remap: delta segments stack on the mapped ones.
	for i := 40; i < 60; i++ {
		if err := c.Add(fmt.Sprintf("doc-%02d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 60 {
		t.Fatalf("len %d, want 60", c.Len())
	}
	for _, i := range []int{0, 39, 40, 59} {
		ms, _ := c.MatchTopK(testFP(i), 3)
		found := false
		for _, m := range ms {
			if m.ID == fmt.Sprintf("doc-%02d", i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc-%02d not found after remap (+delta): %v", i, ms)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: boot restores through the mapped open.
	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c2.Len() != 60 {
		t.Fatalf("rebooted len %d, want 60", c2.Len())
	}
	if c2.MappedSegments() == 0 {
		t.Fatal("reboot did not map snapshot segments")
	}
	info := s2.Info()
	if info.MappedSegments == 0 {
		t.Fatal("store info does not report mapped segments")
	}
	if !reflect.DeepEqual(c2.entryMultiset(), c.entryMultiset()) {
		t.Fatal("reboot changed the entry multiset")
	}

	// The opt-out path boots entirely on the heap.
	c3 := NewCorpus(ccd.DefaultConfig, 2)
	s3, err := OpenStoreWith(t.TempDir(), c3, StoreOptions{NoMapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := c3.Add("solo", testFP(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if c3.MappedSegments() != 0 || c3.Remaps() != 0 {
		t.Fatalf("NoMapSegments store mapped anyway: %d segments, %d remaps",
			c3.MappedSegments(), c3.Remaps())
	}
}

// TestOpenSnapshotFileRejects covers the failure surface: missing file,
// non-empty corpus, backend mismatch.
func TestOpenSnapshotFileRejects(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 2)
	if err := c.OpenSnapshotFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("missing file: no error")
	}
	builder := NewCorpus(ccd.DefaultConfig, 2)
	if err := builder.Add("a", testFP(1)); err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotFile(t, builder)
	full := NewCorpus(ccd.DefaultConfig, 2)
	if err := full.Add("x", testFP(2)); err != nil {
		t.Fatal(err)
	}
	if err := full.OpenSnapshotFile(path); err == nil {
		t.Fatal("non-empty corpus: no error")
	}
}

// TestMappedRestoreSmoke100k is the tier-1 scale smoke: a 100k-document
// corpus snapshots and reopens through the zero-copy path, restore equals
// the original, and queries over the mapped segments answer correctly. The
// corpus is synthetic (no source parsing), so the whole test stays in the
// seconds range even in short mode.
func TestMappedRestoreSmoke100k(t *testing.T) {
	const docs = 100_000
	fps := randomFingerprints(7, docs)
	entries := make([]ccd.Entry, docs)
	for i, fp := range fps {
		entries[i] = ccd.Entry{ID: fmt.Sprintf("doc-%06d", i), FP: fp}
	}
	builder := NewCorpus(ccd.DefaultConfig, 4)
	builder.addLocalBatch(entries)
	if builder.Len() != docs {
		t.Fatalf("builder len %d, want %d", builder.Len(), docs)
	}
	path := writeSnapshotFile(t, builder)

	mapped := NewCorpus(ccd.DefaultConfig, 4)
	if err := mapped.OpenSnapshotFile(path); err != nil {
		t.Fatalf("mapped open of %d-doc snapshot: %v", docs, err)
	}
	if mapped.Len() != docs {
		t.Fatalf("mapped len %d, want %d", mapped.Len(), docs)
	}
	if mapped.MappedSegments() == 0 {
		t.Fatal("100k restore did not map segments")
	}
	for _, qi := range []int{0, docs / 2, docs - 1} {
		want, _ := builder.MatchTopK(fps[qi], 10)
		got, _ := mapped.MatchTopK(fps[qi], 10)
		if len(got) == 0 {
			t.Fatalf("query %d matched nothing over the mapped corpus", qi)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: mapped %v != builder %v", qi, got, want)
		}
	}
}
