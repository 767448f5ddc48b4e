package service

import (
	"sync/atomic"

	"repro/internal/trace"
)

// counters aggregates the engine's atomic operation counts.
type counters struct {
	analyses     atomic.Int64
	fingerprints atomic.Int64
	matches      atomic.Int64
	corpusAdds   atomic.Int64
	tasks        atomic.Int64
	busy         atomic.Int64
	peakBusy     atomic.Int64

	// Admission control and priority scheduling: in-flight admitted
	// requests, admission decisions, interactive tasks blocked on a worker
	// slot, and background tasks that parked behind them.
	inflight           atomic.Int64
	admitted           atomic.Int64
	shed               atomic.Int64
	interactiveWaiting atomic.Int64
	yields             atomic.Int64

	matchLatency trace.Hist

	// Quality-degradation ladder and deadline-budget accounting.
	limitHalved     atomic.Int64
	budgetRequests  atomic.Int64
	deadlineExpired atomic.Int64
	deadlineShipped atomic.Int64

	// Corpus-wide clone studies (the /v1/study corpus mode): cumulative
	// per-phase funnel across every self-join this engine ran.
	studiesStarted   atomic.Int64
	studiesCompleted atomic.Int64
	studiesFailed    atomic.Int64
	studyDocs        atomic.Int64
	studyQueried     atomic.Int64
	studyCandidates  atomic.Int64
	studyScored      atomic.Int64
	studyCutoffs     atomic.Int64
	studyMatches     atomic.Int64
	studyUnions      atomic.Int64
	studyErrors      atomic.Int64
}

// observeStudy folds a finished self-join's funnel in, counting the study
// completed when err is nil and failed otherwise.
func (c *counters) observeStudy(st SelfJoinStats, err error) {
	if err == nil {
		c.studiesCompleted.Add(1)
	} else {
		c.studiesFailed.Add(1)
	}
	c.studyDocs.Add(st.Docs)
	c.studyQueried.Add(st.Queried)
	c.studyCandidates.Add(st.Candidates)
	c.studyScored.Add(st.Scored)
	c.studyCutoffs.Add(st.CutoffSkipped)
	c.studyMatches.Add(st.Matches)
	c.studyUnions.Add(st.Unions)
	c.studyErrors.Add(st.Errors)
}

// taskStart accounts one task entering a worker slot and keeps the
// saturation high-water mark.
func (c *counters) taskStart() {
	c.tasks.Add(1)
	busy := c.busy.Add(1)
	for {
		peak := c.peakBusy.Load()
		if busy <= peak || c.peakBusy.CompareAndSwap(peak, busy) {
			return
		}
	}
}

func (c *counters) taskDone() { c.busy.Add(-1) }

// LatencyStats is the JSON view of a latency histogram (µs observations).
// Quantiles landing in the overflow bucket report MaxUs, the true observed
// maximum — a stalled server's p99 is minutes, not the bucket ceiling.
// Buckets carries the raw log₂ counts for the Prometheus exposition; the
// JSON view keeps the summary fields only.
type LatencyStats struct {
	Count    int64   `json:"count"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P90Us    float64 `json:"p90_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    int64   `json:"max_us"`
	TotalSec float64 `json:"total_sec"`

	Buckets [trace.HistBuckets]int64 `json:"-"`
}

// SummarizeLatency summarizes a microseconds histogram for JSON and
// Prometheus; the engine's, the store's and the HTTP layer's histograms all
// go through it.
func SummarizeLatency(h *trace.Hist) LatencyStats {
	s := h.Snapshot()
	return LatencyStats{
		Count:    s.Count,
		MeanUs:   s.Mean(),
		P50Us:    s.Quantile(0.50),
		P90Us:    s.Quantile(0.90),
		P99Us:    s.Quantile(0.99),
		MaxUs:    s.Max,
		TotalSec: float64(s.Sum) / 1e6,
		Buckets:  s.Buckets,
	}
}

// SizeStats is the JSON view of a unitless size histogram (group-commit
// batch sizes, ...). Same log₂ layout as LatencyStats, raw units.
type SizeStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`

	Buckets [trace.HistBuckets]int64 `json:"-"`
}

// sizeStats summarizes a size histogram for JSON and Prometheus.
func sizeStats(h *trace.Hist) SizeStats {
	s := h.Snapshot()
	return SizeStats{
		Count:   s.Count,
		Mean:    s.Mean(),
		P50:     s.Quantile(0.50),
		P99:     s.Quantile(0.99),
		Max:     s.Max,
		Buckets: s.Buckets,
	}
}

// Snapshot is a point-in-time view of an Engine's load and cache
// effectiveness, JSON-serializable for the /metrics endpoint.
type Snapshot struct {
	// Workers is the pool size; BusyWorkers the slots currently held;
	// Saturation their ratio; PeakBusyWorkers the high-water mark.
	Workers         int     `json:"workers"`
	BusyWorkers     int64   `json:"busy_workers"`
	PeakBusyWorkers int64   `json:"peak_busy_workers"`
	Saturation      float64 `json:"saturation"`

	// TasksExecuted counts every unit of work that went through the pool.
	TasksExecuted int64 `json:"tasks_executed"`

	// Admission reports the bounded request queue and priority gate.
	Admission AdmissionSnapshot `json:"admission"`

	// Operation counts. Matches counts match requests answered on this
	// node, whatever its role; the scans behind them are Corpus.Funnel's.
	Analyses     int64 `json:"analyses"`
	Fingerprints int64 `json:"fingerprints"`
	Matches      int64 `json:"matches"`
	CorpusAdds   int64 `json:"corpus_adds"`

	// Write-path shape of the corpus: the generation readers see, and the
	// publishes and compactions that produced it.
	CorpusGeneration  uint64 `json:"corpus_generation"`
	CorpusPublishes   int64  `json:"corpus_publishes"`
	CorpusCompactions int64  `json:"corpus_compactions"`

	// CorpusShards breaks the corpus down per generation-shard.
	CorpusShards []ShardSnapshot `json:"corpus_shards"`

	// Corpus reports the serving corpus as one object: size, shard layout,
	// ingest accounting and its cumulative match funnel.
	Corpus CorpusSnapshot `json:"corpus"`

	// MatchLatency summarizes the service time of the requests Matches
	// counts.
	MatchLatency LatencyStats `json:"match_latency"`

	// Degrade reports the quality-degradation ladder; Deadline the
	// request-budget spine.
	Degrade  DegradeSnapshot  `json:"degrade"`
	Deadline DeadlineSnapshot `json:"deadline"`

	// Durability reports the WAL/snapshot instrumentation (present only when
	// the corpus has a store attached).
	Durability *DurabilityStats `json:"durability,omitempty"`

	// SelfJoin is the cumulative per-phase funnel of the corpus-wide clone
	// studies this engine ran (the /v1/study corpus mode).
	SelfJoin StudyFunnel `json:"self_join"`

	// Per-layer cache statistics.
	ReportCache      CacheStats `json:"report_cache"`
	FingerprintCache CacheStats `json:"fingerprint_cache"`
}

// StudyFunnel aggregates the engine's clone-study phases for /metrics:
// enumerate → block (posting-list candidates) → verify (scored vs cut) →
// edges (matches, of which unions merged components).
type StudyFunnel struct {
	Started       int64 `json:"started"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Docs          int64 `json:"docs"`
	Queried       int64 `json:"queried"`
	Candidates    int64 `json:"candidates"`
	Scored        int64 `json:"scored"`
	CutoffSkipped int64 `json:"cutoff_skipped"`
	Matches       int64 `json:"matches"`
	Unions        int64 `json:"unions"`
	Errors        int64 `json:"errors"`
}

// CorpusSnapshot is the /metrics view of the serving corpus.
type CorpusSnapshot struct {
	Size       int          `json:"size"`
	Shards     int          `json:"shards"`
	Segments   int          `json:"segments"`
	Adds       int64        `json:"adds"`
	Supersedes int64        `json:"supersedes,omitempty"`
	Funnel     CorpusFunnel `json:"funnel"`
}

// Metrics returns a snapshot of the engine's counters and caches.
func (e *Engine) Metrics() Snapshot {
	s := Snapshot{
		Workers:         e.workers,
		BusyWorkers:     e.ctr.busy.Load(),
		PeakBusyWorkers: e.ctr.peakBusy.Load(),
		TasksExecuted:   e.ctr.tasks.Load(),
		Admission: AdmissionSnapshot{
			Enabled:            e.adm.capacity > 0,
			Capacity:           e.adm.capacity,
			Inflight:           e.ctr.inflight.Load(),
			InteractiveWaiting: e.ctr.interactiveWaiting.Load(),
			Admitted:           e.ctr.admitted.Load(),
			Shed:               e.ctr.shed.Load(),
			BackgroundYields:   e.ctr.yields.Load(),
		},
		Analyses:          e.ctr.analyses.Load(),
		Fingerprints:      e.ctr.fingerprints.Load(),
		Matches:           e.ctr.matches.Load(),
		CorpusAdds:        e.ctr.corpusAdds.Load(),
		CorpusGeneration:  e.corpus.Generation(),
		CorpusPublishes:   e.corpus.Publishes(),
		CorpusCompactions: e.corpus.Compactions(),
		CorpusShards:      e.corpus.ShardStats(),
		Corpus: CorpusSnapshot{
			Size:       e.corpus.Len(),
			Shards:     e.corpus.Shards(),
			Segments:   e.corpus.Segments(),
			Adds:       e.corpus.Adds(),
			Supersedes: e.corpus.Supersedes(),
			Funnel:     e.corpus.Funnel(),
		},
		MatchLatency: SummarizeLatency(&e.ctr.matchLatency),
		Degrade: DegradeSnapshot{
			Tier:        e.DegradeTier(),
			TierEntered: e.deg.entered.Load(),
			LimitHalved: e.ctr.limitHalved.Load(),
		},
		Deadline: DeadlineSnapshot{
			BudgetRequests: e.ctr.budgetRequests.Load(),
			Expired:        e.ctr.deadlineExpired.Load(),
			Shipped:        e.ctr.deadlineShipped.Load(),
		},
		SelfJoin: StudyFunnel{
			Started:       e.ctr.studiesStarted.Load(),
			Completed:     e.ctr.studiesCompleted.Load(),
			Failed:        e.ctr.studiesFailed.Load(),
			Docs:          e.ctr.studyDocs.Load(),
			Queried:       e.ctr.studyQueried.Load(),
			Candidates:    e.ctr.studyCandidates.Load(),
			Scored:        e.ctr.studyScored.Load(),
			CutoffSkipped: e.ctr.studyCutoffs.Load(),
			Matches:       e.ctr.studyMatches.Load(),
			Unions:        e.ctr.studyUnions.Load(),
			Errors:        e.ctr.studyErrors.Load(),
		},
		ReportCache:      e.reports.Stats(),
		FingerprintCache: e.prints.Stats(),
	}
	if st := e.corpus.store; st != nil {
		d := st.Durability()
		s.Durability = &d
	}
	if e.workers > 0 {
		s.Saturation = float64(s.BusyWorkers) / float64(e.workers)
	}
	return s
}
