package soak

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	sched "amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/obs"
)

// Report is a campaign's outcome. Everything in it except Elapsed is a
// deterministic function of the Config (Duration-bounded campaigns
// excepted: their step count depends on the wall clock, but every step
// they did run is seed-determined).
type Report struct {
	Seed       int64
	Steps      int
	Points     int
	Failures   int // per-point failure records (injected faults, timeouts)
	Launches   int64
	Kills      int // kill/resume cycles that actually interrupted a sweep
	Violations []Violation
	Bundles    []string
	Elapsed    time.Duration
}

// Ok reports whether every oracle held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// campaign is the running state behind Run.
type campaign struct {
	cfg     Config
	suite   *core.Suite
	tracer  *obs.Tracer
	scratch string
	report  *Report
	// sweptPoints/sweptFailed mirror what the campaign pushed through
	// the long-lived suite; the metrics oracle checks the suite's own
	// counters against them: every point of a scheduled step is one
	// unit the sweep runner resolves.
	sweptPoints int64
	sweptFailed int64
}

// Run executes the campaign cfg describes and returns its report. A
// non-nil error is an infrastructure failure (a fatal sweep error, an
// unwritable bundle); oracle violations are not errors — they are the
// campaign's findings, in Report.Violations.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	scratch := cfg.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "amdmb-soak-*")
		if err != nil {
			return nil, fmt.Errorf("soak: scratch dir: %w", err)
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}

	c := &campaign{
		cfg:     cfg,
		suite:   newSuite(cfg),
		scratch: scratch,
		report:  &Report{Seed: cfg.Seed},
	}
	if cfg.Trace {
		c.tracer = obs.NewTracer()
		c.suite.Tracer = c.tracer
	}

	for i := 0; cfg.Steps <= 0 || i < cfg.Steps; i++ {
		if cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
			break
		}
		st := planStep(cfg, i)
		if err := c.runStep(st); err != nil {
			return c.report, err
		}
		c.report.Steps++
		if c.cfg.Out != nil {
			verdict := "ok"
			if n := c.stepViolations(st.Index); n > 0 {
				verdict = fmt.Sprintf("VIOLATIONS=%d", n)
			}
			fmt.Fprintf(c.cfg.Out, "step %d %s points=%d %s\n",
				st.Index, st.Scenario, len(st.points), verdict)
		}
		if cfg.FailFast && !c.report.Ok() {
			break
		}
	}
	c.report.Launches = c.suite.KernelLaunches()
	c.report.Elapsed = time.Since(start)
	return c.report, nil
}

// newSuite builds a suite configured for campaigning: single-iteration
// timings (soak wants launch volume, not the paper's 5000-iteration
// steady state) and a tight watchdog so injected hangs fail in
// microseconds of simulated time instead of the default budget.
func newSuite(cfg Config) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.Workers = cfg.Workers
	s.Retries = cfg.Retries
	s.RetryBackoff = 50 * time.Microsecond
	s.DeadlineCycles = 1 << 22
	s.Faults = cfg.Faults
	return s
}

// stepViolations counts violations recorded for step i.
func (c *campaign) stepViolations(i int) int {
	n := 0
	for _, v := range c.report.Violations {
		if v.Step == i {
			n++
		}
	}
	return n
}

// runStep executes one step: the scenario, then the oracles.
func (c *campaign) runStep(st step) error {
	var (
		runs []core.Run
		err  error
	)
	switch st.Scenario {
	case ScenarioKillResume:
		runs, err = c.runKillResume(st)
	default:
		var res *sched.Result
		res, err = runScheduled(context.Background(), c.suite, st)
		if err == nil {
			runs = res.Runs[0]
			c.sweptPoints += int64(len(runs))
			c.sweptFailed += int64(res.Failed())
		}
	}
	if err != nil {
		return fmt.Errorf("soak: step %d (%s): %w", st.Index, st.Scenario, err)
	}
	c.report.Points += len(runs)
	for _, r := range runs {
		if r.Failed() {
			c.report.Failures++
		}
	}
	c.runOracles(st, runs)
	return nil
}

// runScheduled drives a step's sweep through the campaign scheduler —
// the same planning and sweep path `amdmb campaign` takes — as a
// single-spec plan. planStep already clamped the domains, so the plan's
// own clamp is a no-op; two points of the step that generate the same
// launch share it through the simulate store, and the differential
// oracles then check the results against direct reference sweeps.
func runScheduled(ctx context.Context, s *core.Suite, st step) (*sched.Result, error) {
	spec := sched.Spec{
		Name:   fmt.Sprintf("step%03d", st.Index),
		Figure: core.FigureSpec{Points: st.points},
	}
	plan, err := sched.NewPlan([]sched.Spec{spec}, sched.Options{})
	if err != nil {
		return nil, err
	}
	return plan.RunCtx(ctx, s, sched.RunOptions{})
}

// runKillResume is one crash/resume cycle, in-process: a fresh suite
// runs the step's points as a campaign over a per-step persistent cache
// dir, and the campaign's context is cancelled at the KillAt-th launch;
// a second fresh suite replans the same campaign over the same dir and
// runs it to completion, serving every launch the victim finished from
// disk; the resumed results are the step's results. The
// checkpoint-identity oracle then compares them bit-for-bit against an
// uninterrupted reference sweep (runOracles). Fresh suites keep the cycle honest —
// the resume may not lean on the killed sweep's in-memory caches —
// while the campaign suite's launch accounting stays consistent for the
// metrics oracle.
func (c *campaign) runKillResume(st step) ([]core.Run, error) {
	dir := filepath.Join(c.scratch, fmt.Sprintf("step%03d.cache", st.Index))
	defer os.RemoveAll(dir)

	victim := newSuite(c.cfg)
	victim.PersistDir = dir
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	var launches atomic.Int64
	victim.BeforeLaunch = func(core.KernelPoint, int) {
		if launches.Add(1) == int64(st.KillAt) {
			kill()
		}
	}
	_, err := runScheduled(ctx, victim, st)
	switch {
	case errors.Is(err, core.ErrSweepInterrupted):
		c.report.Kills++
	case err != nil:
		return nil, err
	}

	resumed := newSuite(c.cfg)
	resumed.PersistDir = dir
	res, err := runScheduled(context.Background(), resumed, st)
	if err != nil {
		return nil, err
	}
	return res.Runs[0], nil
}
