package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ccd"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmitRequestShedsOverCapacity(t *testing.T) {
	e := New(Options{Workers: 1, Admission: AdmissionConfig{MaxQueue: 1}})
	if got := e.adm.capacity; got != 2 {
		t.Fatalf("capacity %d, want workers+queue = 2", got)
	}

	rel1, err := e.AdmitRequest()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := e.AdmitRequest()
	if err != nil {
		t.Fatal(err)
	}
	// Third concurrent request is over capacity: shed, not queued.
	if _, err := e.AdmitRequest(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity admit returned %v, want ErrOverloaded", err)
	}

	// Releasing one slot readmits; double-release must not free two slots.
	rel1()
	rel1()
	rel3, err := e.AdmitRequest()
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if _, err := e.AdmitRequest(); !errors.Is(err, ErrOverloaded) {
		t.Fatal("double-release freed a phantom slot")
	}
	rel2()
	rel3()

	adm := e.Metrics().Admission
	if !adm.Enabled || adm.Capacity != 2 {
		t.Errorf("snapshot enabled=%v capacity=%d, want true/2", adm.Enabled, adm.Capacity)
	}
	if adm.Inflight != 0 {
		t.Errorf("inflight %d after all releases, want 0", adm.Inflight)
	}
	if adm.Admitted != 3 || adm.Shed != 2 {
		t.Errorf("admitted=%d shed=%d, want 3/2", adm.Admitted, adm.Shed)
	}
}

func TestAdmissionDisabledStillCounts(t *testing.T) {
	e := New(Options{Workers: 1}) // zero AdmissionConfig: no shedding
	var rels []func()
	for i := 0; i < 100; i++ {
		rel, err := e.AdmitRequest()
		if err != nil {
			t.Fatalf("admit %d with admission disabled: %v", i, err)
		}
		rels = append(rels, rel)
	}
	adm := e.Metrics().Admission
	if adm.Enabled || adm.Capacity != 0 {
		t.Errorf("snapshot enabled=%v capacity=%d, want false/0", adm.Enabled, adm.Capacity)
	}
	if adm.Inflight != 100 {
		t.Errorf("inflight %d, want 100 (depth is reported even when unbounded)", adm.Inflight)
	}
	for _, rel := range rels {
		rel()
	}
}

func TestRetryAfterBounds(t *testing.T) {
	e := New(Options{Workers: 2, Admission: AdmissionConfig{MaxQueue: 4}})
	// No latency signal, nothing in flight: still at least a second.
	if d := e.RetryAfter(); d < time.Second || d > 30*time.Second {
		t.Errorf("idle RetryAfter %v outside [1s, 30s]", d)
	}
	// A huge queue against a slow p99 clamps at the ceiling.
	e.ctr.inflight.Store(10_000)
	e.ctr.matchLatency.Observe(20_000_000) // one 20s match
	if d := e.RetryAfter(); d != 30*time.Second {
		t.Errorf("saturated RetryAfter %v, want the 30s clamp", d)
	}
	e.ctr.inflight.Store(0)
}

// TestBackgroundYieldsToInteractive pins the priority inversion fix: with the
// pool fully occupied and an interactive request waiting, a background task
// that arrives later must not steal the freed slot.
func TestBackgroundYieldsToInteractive(t *testing.T) {
	e := New(Options{Workers: 1})
	block := make(chan struct{})
	occupied := make(chan struct{})
	go e.DoCtx(context.Background(), func() { close(occupied); <-block })
	<-occupied

	order := make(chan string, 2)
	go func() {
		_ = e.DoCtx(context.Background(), func() { order <- "interactive" })
	}()
	waitFor(t, "interactive waiter registered", func() bool {
		return e.ctr.interactiveWaiting.Load() == 1
	})

	go func() {
		_ = e.DoCtx(WithClass(context.Background(), ClassBackground), func() { order <- "background" })
	}()
	waitFor(t, "background task parked", func() bool {
		return e.ctr.yields.Load() >= 1
	})

	close(block) // free the slot while both are waiting
	if first := <-order; first != "interactive" {
		t.Fatalf("background task won the freed slot (ran %q first)", first)
	}
	if second := <-order; second != "background" {
		t.Fatalf("second completion %q, want background", second)
	}
	if y := e.Metrics().Admission.BackgroundYields; y < 1 {
		t.Errorf("background_yields %d, want >= 1", y)
	}
}

// TestBackgroundYieldCancellable: a parked background task must honor its
// context instead of spinning until the interactive queue drains.
func TestBackgroundYieldCancellable(t *testing.T) {
	e := New(Options{Workers: 1})
	block := make(chan struct{})
	occupied := make(chan struct{})
	go e.DoCtx(context.Background(), func() { close(occupied); <-block })
	<-occupied
	defer close(block)

	go func() {
		_ = e.DoCtx(context.Background(), func() {})
	}()
	waitFor(t, "interactive waiter registered", func() bool {
		return e.ctr.interactiveWaiting.Load() == 1
	})

	ctx, cancel := context.WithCancel(WithClass(context.Background(), ClassBackground))
	errc := make(chan error, 1)
	go func() {
		errc <- e.DoCtx(ctx, func() { t.Error("cancelled background task ran") })
	}()
	waitFor(t, "background task parked", func() bool { return e.ctr.yields.Load() >= 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked background task returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked background task ignored cancellation")
	}
}

// TestCloneStudyYieldsToInteractive proves the self-join runs at background
// class end to end: with an interactive request already waiting for the only
// worker slot, a freshly started clone study parks instead of competing, and
// the interactive request wins the slot when it frees.
func TestCloneStudyYieldsToInteractive(t *testing.T) {
	e := New(Options{Workers: 1, Shards: 2})
	for i := 0; i < 4; i++ {
		if err := addFP(e, fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}

	block := make(chan struct{})
	occupied := make(chan struct{})
	go e.DoCtx(context.Background(), func() { close(occupied); <-block })
	<-occupied

	order := make(chan string, 2)
	go func() {
		_ = e.DoCtx(context.Background(), func() { order <- "interactive" })
	}()
	waitFor(t, "interactive waiter registered", func() bool {
		return e.ctr.interactiveWaiting.Load() == 1
	})

	studyDone := make(chan error, 1)
	go func() {
		_, err := e.RunCloneStudy(context.Background(), 0, 3)
		order <- "study"
		studyDone <- err
	}()
	waitFor(t, "study segment parked behind interactive work", func() bool {
		return e.ctr.yields.Load() >= 1
	})

	close(block)
	if first := <-order; first != "interactive" {
		t.Fatalf("study segment beat the waiting interactive request (%q ran first)", first)
	}
	<-order
	if err := <-studyDone; err != nil {
		t.Fatalf("study failed after yielding: %v", err)
	}
}

// TestBackpressureEngagesAndReleases drives the full loop: slow fsyncs raise
// the rolling p99 past the threshold (acks slow down), fast fsyncs wash the
// window clean (acks speed back up). The cumulative histogram could never
// express the second half.
func TestBackpressureEngagesAndReleases(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetBackpressure(BackpressureConfig{FsyncP99: time.Millisecond, MaxDelay: 5 * time.Millisecond})

	// A sick disk: every fsync takes ~4ms.
	ff := injectFaults(store.wal)
	ff.sync = func() error { time.Sleep(4 * time.Millisecond); return nil }
	for i := 0; i < 3; i++ {
		if err := c.Add(fmt.Sprintf("slow-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := store.Durability()
	if !d.BackpressureEngaged {
		t.Fatalf("backpressure not engaged at recent p99 %dus (threshold 1ms)", d.RecentFsyncP99Us)
	}
	// The first add seeds the window; later adds over the threshold are slowed.
	if d.BackpressureDelays < 1 {
		t.Fatalf("no acks slowed under a 4ms-fsync disk: %+v", d)
	}
	if d.BackpressureDelayUs <= 0 {
		t.Errorf("delays counted but no delay time accumulated: %+v", d)
	}

	// The disk recovers: enough healthy fsyncs must evict every slow sample
	// from the rolling window and disengage backpressure. The healthy disk is
	// simulated too — a real fsync on a loaded CI disk can exceed the 1ms
	// threshold, and the window eviction is what's under test here.
	ff.sync = func() error { return nil }
	for i := 0; i < recentFsyncWindow+4; i++ {
		if err := c.Add(fmt.Sprintf("fast-%d", i), testFP(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	d2 := store.Durability()
	if d2.BackpressureEngaged {
		t.Fatalf("backpressure still engaged after recovery: recent p99 %dus", d2.RecentFsyncP99Us)
	}
	delaysAtRecovery := d2.BackpressureDelays
	if err := c.Add("post-recovery", testFP(9999)); err != nil {
		t.Fatal(err)
	}
	if got := store.Durability().BackpressureDelays; got != delaysAtRecovery {
		t.Errorf("healthy-disk add was slowed: delays %d -> %d", delaysAtRecovery, got)
	}
}

// TestBackpressureDisabledByDefault: without SetBackpressure no delay is ever
// injected, whatever the disk does.
func TestBackpressureDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	injectFaults(store.wal).sync = func() error { time.Sleep(2 * time.Millisecond); return nil }
	for i := 0; i < 3; i++ {
		if err := c.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := store.Durability()
	if d.BackpressureDelays != 0 || d.BackpressureEngaged {
		t.Errorf("backpressure active without a policy: %+v", d)
	}
	if d.RecentFsyncP99Us <= 0 {
		t.Errorf("rolling fsync p99 not tracked: %+v", d)
	}
}
