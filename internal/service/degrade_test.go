package service

import "testing"

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
