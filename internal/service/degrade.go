package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// DegradeConfig tunes the quality ladder: under measured pressure the engine
// degrades result *quality* — tier 1 halves the effective top-K of a
// single-query match — before admission degrades *quantity* (shedding 429s).
// Pressure is the max of queue pressure (in-flight admitted requests /
// admission capacity) and durability pressure (recent fsync p99 / the store's
// BackpressureConfig.FsyncP99, none with backpressure off), both maintained
// for /metrics: the ladder adds only a reader to the hot path.
type DegradeConfig struct {
	// Disabled switches the ladder off; DegradeTier() is always 0.
	Disabled bool
}

// The ladder's fixed shape. Tier 1 engages at degradePressure; the pressure
// signals are re-read at most once per degradeSampleInterval, lazily on the
// first DegradeTier call after it, so an idle engine pays nothing. The
// hysteresis enters after degradeEnterSamples consecutive hot samples and
// leaves after degradeExitSamples consecutive calm ones — fast under real
// overload, slow to recover so the ladder does not flap at the boundary.
const (
	degradePressure       = 0.75
	degradeSampleInterval = 100 * time.Millisecond
	degradeEnterSamples   = 2
	degradeExitSamples    = 10
)

// degrade is the tier state machine: tier 0 (full quality) or tier 1. It has
// no goroutine: DegradeTier samples the pressure signals at most once per
// degradeSampleInterval under a mutex, so the controller's lifecycle is the
// engine's and a quiet server never samples.
type degrade struct {
	cfg DegradeConfig

	// entered counts entries into tier 1 since boot (tier_entered).
	entered atomic.Int64

	mu         sync.Mutex
	lastSample time.Time
	tier       int
	// streak counts consecutive samples arguing for the other tier.
	streak int
}

// sample folds one pressure reading into the hysteresis window and returns
// the (possibly changed) tier. The caller holds d.mu.
func (d *degrade) sample(p float64) int {
	if hot := p >= degradePressure; hot == (d.tier == 1) {
		d.streak = 0
		return d.tier
	}
	d.streak++
	switch {
	case d.tier == 0 && d.streak >= degradeEnterSamples:
		d.tier, d.streak = 1, 0
		d.entered.Add(1)
	case d.tier == 1 && d.streak >= degradeExitSamples:
		d.tier, d.streak = 0, 0
	}
	return d.tier
}

// pressure reads the two load signals the ladder is driven by. Both are
// plain atomic/mutex reads maintained elsewhere.
func (e *Engine) pressure() float64 {
	var p float64
	if e.adm.capacity > 0 {
		p = float64(e.ctr.inflight.Load()) / float64(e.adm.capacity)
	}
	if st := e.corpus.store; st != nil {
		if bp := st.bp.Load(); bp != nil {
			p = max(p, float64(st.wal.recentFsyncP99())/float64(bp.FsyncP99))
		}
	}
	return p
}

// DegradeTier returns the engine's current degradation tier (0 = full
// quality, 1 = halved match limit), lazily re-sampling the pressure signals
// when the last sample is older than degradeSampleInterval.
func (e *Engine) DegradeTier() int {
	if e.deg.cfg.Disabled {
		return 0
	}
	d := e.deg
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	if now.Sub(d.lastSample) < degradeSampleInterval {
		return d.tier
	}
	d.lastSample = now
	return d.sample(e.pressure())
}

// DegradeSnapshot is the /metrics view of the quality-degradation ladder.
type DegradeSnapshot struct {
	// Tier is the current degradation tier (0 = full quality).
	Tier int `json:"tier"`
	// TierEntered counts entries into tier 1 since boot.
	TierEntered int64 `json:"tier_entered"`
	// LimitHalved counts single-query match requests served with a halved
	// effective limit (tier 1).
	LimitHalved int64 `json:"limit_halved"`
}

// DeadlineSnapshot is the /metrics view of the request-budget spine.
type DeadlineSnapshot struct {
	// BudgetRequests counts requests that declared a deadline budget
	// (X-Request-Timeout / ?timeout= / shipped shard budget).
	BudgetRequests int64 `json:"budget_requests"`
	// Expired counts budgets that ran out mid-request and were answered
	// with a degraded partial result instead of an error.
	Expired int64 `json:"expired"`
	// Shipped counts shard-side requests that arrived with a remaining
	// budget shipped by a router — nonzero here proves budget propagation
	// crosses the network tier.
	Shipped int64 `json:"shipped"`
}

// NoteBudgetRequest records a request that declared a deadline budget.
func (e *Engine) NoteBudgetRequest() { e.ctr.budgetRequests.Add(1) }

// NoteDeadlineShipped records a shard request that carried a shipped budget.
func (e *Engine) NoteDeadlineShipped() { e.ctr.deadlineShipped.Add(1) }

// NoteLimitHalved records a match served with a tier-1 halved limit.
func (e *Engine) NoteLimitHalved() { e.ctr.limitHalved.Add(1) }
