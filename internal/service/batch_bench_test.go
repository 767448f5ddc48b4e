package service

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ccd"
)

// Working benchmarks of the write path, beside the package (ROADMAP 1d). The
// numbers of record come from bench/.
//
//	go test -run '^$' -bench 'StoreAddBatch|PublishCascade' -benchtime 200x ./internal/service/

// BenchmarkStoreAddBatch is WAL append against fsync: durable batch adds of
// 1, 4, 32 and 256 fingerprints on a real-fsync directory. One op is one
// batch; docs/s and fsyncs/doc say what batching buys.
func BenchmarkStoreAddBatch(b *testing.B) {
	fps := randomFingerprints(41, 4096)
	for _, size := range []int{1, 4, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			c := NewCorpus(ccd.DefaultConfig, 2)
			store, err := OpenStore(b.TempDir(), c)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			docs := make([]ccd.Entry, size)
			ctx := context.Background()
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range docs {
					docs[j] = ccd.Entry{ID: fmt.Sprintf("doc-%d", n), FP: fps[n%len(fps)]}
					n++
				}
				if err := c.AddBatch(ctx, docs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(store.Durability().FsyncLatency.Count)/float64(n), "fsyncs/doc")
		})
	}
}

// BenchmarkPublishCascade is publish and compaction alone (heap corpus, one
// shard, no WAL): batches of 1 keep the geometric cascade as deep as it gets,
// so the single-build merge does the most here. One op is one publish.
func BenchmarkPublishCascade(b *testing.B) {
	fps := randomFingerprints(43, 4096)
	for _, size := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			c := NewCorpus(ccd.DefaultConfig, 1)
			docs := make([]ccd.Entry, size)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range docs {
					docs[j] = ccd.Entry{ID: fmt.Sprintf("doc-%d", n), FP: fps[n%len(fps)]}
					n++
				}
				c.addLocalBatch(docs)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(c.Compactions())/float64(c.Publishes()), "merges/publish")
		})
	}
}
