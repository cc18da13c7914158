package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"amdgpubench/internal/core"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/report"
	"amdgpubench/internal/sim"
)

// The job registry: the daemon-facing face of the scheduler. A Request
// is what a client POSTs; Jobs validates and plans it synchronously
// (bad requests fail before anything runs), executes the plan on the
// ONE shared suite in a goroutine, and tracks it under a job ID for
// status polling, figure retrieval and cancellation. Everything that
// makes the daemon's multiplexing work is already below this layer: the
// pipeline's content-addressed stores dedup artifacts ACROSS concurrent
// jobs (two clients sweeping overlapping figures share each generated
// kernel's seal, and with it the compiled program, and simulate shared
// points once), and per-job contexts cancel one campaign without
// touching its neighbors (Plan.RunCtx / core.Suite.RunKernelPoints).
//
// Job metrics, on the suite's shared registry:
//
//	campaign.jobs.submitted — accepted requests
//	campaign.jobs.completed — jobs that finished cleanly
//	campaign.jobs.failed    — jobs that died on a fatal sweep error
//	campaign.jobs.cancelled — jobs stopped by Cancel
//	campaign.jobs.running   — gauge of in-flight jobs

// Request is one campaign submission.
type Request struct {
	// Figs names the figures to run, in output order; trailing-'*' globs
	// expand as in `amdmb campaign -figs`.
	Figs []string `json:"figs"`
	// Archs, when non-empty, restricts every figure to the named
	// architectures, as Resolve parses them; a figure left with no
	// points fails the request.
	Archs []string `json:"archs,omitempty"`
	// MaxDomain, when positive, clamps sweep domains to at most
	// MaxDomain x MaxDomain at plan time, as Options.MaxDomain does. The
	// daemon may impose a tighter ceiling of its own (Jobs.MaxDomain).
	MaxDomain int `json:"max_domain,omitempty"`
	// Iterations must be zero or equal to the daemon's fixed iteration
	// count: iterations feed every sweep signature and simulate key, so
	// one shared suite runs one iteration setting.
	Iterations int `json:"iterations,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobStatus is one job's externally visible state — what the daemon
// serializes for GET /v1/campaigns/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Figs  []string `json:"figs"`
	Error string   `json:"error,omitempty"`
	// Units is the launch-unit count, one per figure point; Executed
	// and FailedUnits advance live while the job runs.
	Units       int `json:"units"`
	Executed    int `json:"executed"`
	FailedUnits int `json:"failed_units"`
}

// Job is one submitted campaign. Fields set at submit time (id, figs,
// plan) are immutable; the mutable state lives behind the registry's
// lock.
type Job struct {
	id   string
	figs []string // expanded figure names, output order
	plan *Plan

	cancel context.CancelFunc
	done   chan struct{} // closed when the run goroutine exits

	mu        sync.Mutex
	state     JobState
	err       string
	executed  int
	failedU   int
	cancelReq bool
	figures   map[string]*report.Figure // by figure name, when done
}

// ID returns the job's registry key.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Figs:        append([]string(nil), j.figs...),
		Error:       j.err,
		Units:       len(j.plan.Units),
		Executed:    j.executed,
		FailedUnits: j.failedU,
	}
}

// Figure returns the named finished figure. ok is false until the job
// is done (figures assemble only from a complete unit set) or when the
// name is not part of the job.
func (j *Job) Figure(name string) (*report.Figure, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fig, ok := j.figures[name]
	return fig, ok
}

// Jobs is the registry: a shared suite plus every job submitted to it.
type Jobs struct {
	// MaxDomain, when positive, is the service's domain ceiling
	// (`amdmbd -max-domain`): a request plans at the smaller of it and
	// the request's own max_domain. Set it before the first Submit.
	MaxDomain int

	suite *core.Suite

	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	running   *obs.Gauge

	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
}

// NewJobs builds a registry around the shared suite.
func NewJobs(s *core.Suite) *Jobs {
	m := s.Metrics()
	return &Jobs{
		suite:     s,
		submitted: m.Counter("campaign.jobs.submitted"),
		completed: m.Counter("campaign.jobs.completed"),
		failed:    m.Counter("campaign.jobs.failed"),
		cancelled: m.Counter("campaign.jobs.cancelled"),
		running:   m.Gauge("campaign.jobs.running"),
		jobs:      make(map[string]*Job),
	}
}

// Submit validates, plans and launches a request. Validation and
// planning run synchronously — an unknown figure, a bad arch, an
// iteration mismatch or an empty filter result all fail here, before
// the job exists — and the sweep itself starts in a goroutine. The
// returned job is already registered and running.
func (js *Jobs) Submit(req Request) (*Job, error) {
	// Both counts resolve zero to the paper's default, so a client naming
	// the default explicitly matches a daemon left on it.
	if have := sim.Iterations(js.suite.Iterations); req.Iterations != 0 && sim.Iterations(req.Iterations) != have {
		return nil, fmt.Errorf("campaign: iterations %d unavailable: this service runs iterations=%d (iteration count is part of every cache identity, so one shared suite runs exactly one setting)",
			req.Iterations, have)
	}
	if req.MaxDomain < 0 {
		return nil, fmt.Errorf("campaign: negative max_domain %d", req.MaxDomain)
	}
	specs, err := Resolve(js.suite, req.Figs, req.Archs)
	if err != nil {
		return nil, err
	}
	maxDomain := req.MaxDomain
	if js.MaxDomain > 0 && (maxDomain == 0 || maxDomain > js.MaxDomain) {
		maxDomain = js.MaxDomain
	}
	plan, err := NewPlan(specs, Options{MaxDomain: maxDomain})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		figs:   names,
		plan:   plan,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  JobRunning,
	}
	js.mu.Lock()
	js.seq++
	j.id = fmt.Sprintf("c%06d", js.seq)
	js.jobs[j.id] = j
	js.mu.Unlock()
	js.submitted.Inc()
	js.running.Add(1)

	go js.run(ctx, j)
	return j, nil
}

// run executes one job's plan to completion and records the outcome.
func (js *Jobs) run(ctx context.Context, j *Job) {
	defer close(j.done)
	defer js.running.Add(-1)
	res, err := j.plan.RunCtx(ctx, js.suite, RunOptions{Observe: func(r core.Run) {
		j.mu.Lock()
		j.executed++
		if r.Failed() {
			j.failedU++
		}
		j.mu.Unlock()
	}})
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state = JobDone
		j.figures = make(map[string]*report.Figure, len(res.Figures))
		for i, fig := range res.Figures {
			j.figures[j.plan.Specs[i].Name] = fig
		}
		js.completed.Inc()
	case errors.Is(err, core.ErrSweepInterrupted) && j.cancelReq:
		j.state = JobCancelled
		j.err = "cancelled"
		js.cancelled.Inc()
	default:
		j.state = JobFailed
		j.err = err.Error()
		js.failed.Inc()
	}
}

// Get returns a registered job.
func (js *Jobs) Get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	return j, ok
}

// List snapshots every job's status, newest first.
func (js *Jobs) List() []JobStatus {
	js.mu.Lock()
	jobs := make([]*Job, 0, len(js.jobs))
	for _, j := range js.jobs {
		jobs = append(jobs, j)
	}
	js.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Cancel interrupts a running job's sweep; the job settles to
// JobCancelled once its in-flight points drain. Cancelling a finished
// or already-cancelled job reports false.
func (js *Jobs) Cancel(id string) bool {
	j, ok := js.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	if j.state != JobRunning {
		j.mu.Unlock()
		return false
	}
	j.cancelReq = true
	j.mu.Unlock()
	j.cancel()
	return true
}
