package service

import (
	"fmt"
	"testing"
	"time"
)

// TestDegradeSampleHysteresis pins the ladder's on/off state machine: tier 1
// is entered after 2 consecutive samples at pressure ≥ 0.75, left after 10
// consecutive calm ones, a lone spike or dip resets the streak, and every
// entry counts once in tier_entered.
func TestDegradeSampleHysteresis(t *testing.T) {
	const hot, calm = 0.75, 0.74
	d := &degrade{}
	feed := func(p float64, n, wantTier int, why string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := d.sample(p); got != wantTier {
				t.Fatalf("%s: sample %d of %v gave tier %d, want %d", why, i+1, p, got, wantTier)
			}
		}
	}

	feed(hot, 1, 0, "a lone spike")
	feed(calm, 1, 0, "calm after the spike")
	feed(hot, 1, 0, "first hot sample")
	feed(hot, 1, 1, "second consecutive hot sample enters")
	if n := d.entered.Load(); n != 1 {
		t.Fatalf("tier_entered %d after one entry, want 1", n)
	}

	feed(calm, 9, 1, "calm samples short of the exit window")
	feed(hot, 1, 1, "a hot sample while in tier 1")
	feed(calm, 9, 1, "the dip restarted the exit window")
	feed(calm, 1, 0, "the tenth consecutive calm sample leaves")
	if n := d.entered.Load(); n != 1 {
		t.Fatalf("tier_entered %d after leaving, want 1 (leaving is not an entry)", n)
	}

	feed(hot, 1, 0, "first hot sample after leaving")
	feed(hot, 1, 1, "re-entry")
	if n := d.entered.Load(); n != 2 {
		t.Fatalf("tier_entered %d after re-entering, want 2", n)
	}
}

// TestDegradeReadsTheStoreFsyncThreshold drives the ladder's durability
// arm: a disk whose fsyncs take 4 ms against a 1 ms backpressure threshold
// is pressure 4, and two samples enter tier 1. With backpressure off the
// same disk leaves the ladder on admission pressure alone, which is zero.
func TestDegradeReadsTheStoreFsyncThreshold(t *testing.T) {
	e := New(Options{Workers: 1, Shards: 1})
	store, err := OpenStore(t.TempDir(), e.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	injectFaults(store.wal).sync = func() error { time.Sleep(4 * time.Millisecond); return nil }
	for i := 0; i < 3; i++ {
		if err := addFP(e, fmt.Sprintf("slow-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	samples := func(n int) int {
		tier := 0
		for i := 0; i < n; i++ {
			e.deg.lastSample = time.Time{} // due for a sample now
			tier = e.DegradeTier()
		}
		return tier
	}
	if tier := samples(degradeEnterSamples); tier != 0 {
		t.Fatalf("tier %d with backpressure off, want 0 (admission pressure only)", tier)
	}
	store.SetBackpressure(BackpressureConfig{FsyncP99: time.Millisecond})
	if tier := samples(degradeEnterSamples); tier != 1 {
		t.Fatalf("tier %d at recent fsync p99 %dus over a 1ms threshold, want 1",
			tier, store.Durability().RecentFsyncP99Us)
	}
}
