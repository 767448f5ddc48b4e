package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/service"
)

// TestCloneStudyServicePathEqualsOffline pins the shared-implementation
// guarantee over a real pipeline contract corpus: the clone study through
// the serving engine (sharded, pooled — cmd/soddstudy and the /v1/study
// corpus mode) reports the identical cluster-size distribution as a serial
// self-join over a single-shard corpus.
func TestCloneStudyServicePathEqualsOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a contract corpus")
	}
	cfg := ccd.ConservativeConfig
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: 3, Scale: 0.002})
	contracts := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: 4, Scale: 0.002}, qa)
	if len(contracts) < 100 {
		t.Fatalf("contract corpus too small: %d", len(contracts))
	}

	corpus := service.NewCorpus(cfg, 1)
	entries := make([]ccd.Entry, len(contracts))
	for i, c := range contracts {
		fp, _ := ccd.FingerprintSource(c.Source) // partial fingerprints still index
		entries[i] = ccd.Entry{ID: c.Address, FP: fp}
	}
	if err := corpus.AddBatch(context.Background(), entries); err != nil {
		t.Fatal(err)
	}
	join := service.NewSelfJoin(corpus, 0)
	if err := join.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	offline := join.Report(10)

	online, err := CloneStudy(service.New(service.Options{CCD: cfg}), contracts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(online.Summary, offline.Summary) {
		t.Fatalf("service-path summary %+v\noffline %+v", online.Summary, offline.Summary)
	}
	if !reflect.DeepEqual(online.Top, offline.Top) {
		t.Fatalf("service-path top %v\noffline %v", online.Top, offline.Top)
	}
	if online.Eta != offline.Eta || online.Epsilon != offline.Epsilon {
		t.Fatalf("parameters differ: %v/%v vs %v/%v", online.Eta, online.Epsilon, offline.Eta, offline.Epsilon)
	}

	out := RenderCloneStudy(online)
	for _, want := range []string{"Clone study", "size distribution:", "clone ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
