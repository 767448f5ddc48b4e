package api

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/service"
)

// maxRunningJobs caps concurrent study runs; further POST /v1/study requests
// are rejected with 429 until one finishes. maxRetainedJobs bounds how many
// finished jobs stay pollable before the oldest are evicted.
const (
	maxRunningJobs  = 4
	maxRetainedJobs = 64
)

// JobStatus is the lifecycle state of an async study job.
type JobStatus string

const (
	// JobRunning marks a study still computing; keep polling.
	JobRunning JobStatus = "running"
	// JobDone marks a study whose full report is attached.
	JobDone JobStatus = "done"
	// JobFailed marks a study aborted by an error (carried in the payload).
	JobFailed JobStatus = "failed"
)

// StudySummary is the JSON-able condensate a polling client receives. For
// pipeline-mode jobs it carries the Figure 6 funnel and tables (the full
// pipeline.Result embeds whole corpora and is far too large to ship); for
// corpus-mode jobs it carries the clone study report instead.
type StudySummary struct {
	// Mode is "pipeline" or "corpus".
	Mode         string                 `json:"mode"`
	Seed         int64                  `json:"seed,omitempty"`
	Scale        float64                `json:"scale,omitempty"`
	Funnel       *pipeline.Funnel       `json:"funnel,omitempty"`
	Correlations []pipeline.Correlation `json:"correlations,omitempty"`
	// Table6 maps DASP category names to snippet/contract counts.
	Table6 map[string]CategoryCount `json:"table6,omitempty"`
	// ManualSampleSize is the Table 8 stratified sample size.
	ManualSampleSize int `json:"manual_sample_size,omitempty"`
	// Clone is the corpus-mode result: self-join funnel plus the
	// cluster-size distribution over the serving corpus.
	Clone   *service.CloneReport `json:"clone,omitempty"`
	Elapsed string               `json:"elapsed"`
}

// CategoryCount is one Table 6 cell pair.
type CategoryCount struct {
	Snippets  int `json:"snippets"`
	Contracts int `json:"contracts"`
}

// Job is one asynchronous study run.
type Job struct {
	ID      string        `json:"id"`
	Status  JobStatus     `json:"status"`
	Created time.Time     `json:"created"`
	Summary *StudySummary `json:"summary,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// jobStore tracks study jobs by id, caps how many run at once, and evicts
// the oldest finished jobs beyond the retention bound.
type jobStore struct {
	mu      sync.RWMutex
	seq     int
	running int
	jobs    map[string]*Job
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

// start registers a running job and returns a copy of its initial state.
// ok is false when maxRunningJobs studies are already in flight.
func (s *jobStore) start(now time.Time) (_ Job, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running >= maxRunningJobs {
		return Job{}, false
	}
	s.running++
	s.seq++
	j := &Job{ID: fmt.Sprintf("study-%d", s.seq), Status: JobRunning, Created: now}
	s.jobs[j.ID] = j
	s.pruneLocked()
	return *j, true
}

// finish records a job's outcome and frees its running slot.
func (s *jobStore) finish(id string, summary *StudySummary, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.Status != JobRunning {
		return
	}
	s.running--
	if err != nil {
		j.Status = JobFailed
		j.Error = err.Error()
		return
	}
	j.Status = JobDone
	j.Summary = summary
}

// pruneLocked evicts the oldest finished jobs until at most maxRetainedJobs
// remain; running jobs are never evicted. Callers hold s.mu.
func (s *jobStore) pruneLocked() {
	if len(s.jobs) <= maxRetainedJobs {
		return
	}
	var finished []*Job
	for _, j := range s.jobs {
		if j.Status != JobRunning {
			finished = append(finished, j)
		}
	}
	slices.SortFunc(finished, oldestFirst)
	for _, j := range finished {
		if len(s.jobs) <= maxRetainedJobs {
			return
		}
		delete(s.jobs, j.ID)
	}
}

// get returns a copy of the job, if known.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// list returns copies of all jobs, newest first (by creation time, then id).
func (s *jobStore) list() []Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	all := slices.SortedFunc(maps.Values(s.jobs), func(a, b *Job) int { return oldestFirst(b, a) })
	out := make([]Job, len(all))
	for i, j := range all {
		out[i] = *j
	}
	return out
}

// oldestFirst orders jobs by creation time, then id.
func oldestFirst(a, b *Job) int {
	return cmp.Or(a.Created.Compare(b.Created), cmp.Compare(a.ID, b.ID))
}

// summarize condenses a pipeline result.
func summarize(res *pipeline.Result) *StudySummary {
	funnel := res.Funnel
	sum := &StudySummary{
		Mode:             "pipeline",
		Seed:             res.Config.Seed,
		Scale:            res.Config.Scale,
		Funnel:           &funnel,
		Correlations:     res.Correlations,
		Table6:           make(map[string]CategoryCount, len(res.Table6)),
		ManualSampleSize: res.Manual.SampleSize,
	}
	for cat, e := range res.Table6 {
		sum.Table6[string(cat)] = CategoryCount{Snippets: e.Snippets, Contracts: e.Contracts}
	}
	return sum
}
