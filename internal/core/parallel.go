package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/sim"
)

// The suite's sweeps are embarrassingly parallel: every (card, parameter)
// point compiles and simulates independently and deterministically. This
// file is the resilient sweep runner they execute on: a fixed worker set
// (never more goroutines than workers, however large the sweep), panic
// recovery into per-point failure records, bounded retry with backoff
// for transient launch faults, cancellation of the remaining points on
// the first fatal error. Durability lives one layer down: with a
// PersistDir every completed launch is in the pipeline's on-disk simulate
// tier, so an interrupted sweep rerun over the same directory serves its
// finished points from disk instead of recomputing them.

// Workers sets the sweep parallelism; zero means GOMAXPROCS. It is a
// Suite field so tests can force serial execution.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// errLaunchPanic marks a panic recovered from a worker: the point failed,
// the sweep — and the process — survive.
var errLaunchPanic = errors.New("panic during launch")

// ErrSweepInterrupted reports that the sweep's context was cancelled
// before every point completed. Points finished up to that moment are
// already in the persistent tier (when the suite has a PersistDir), so a
// re-run with the same configuration resumes rather than recomputes —
// the in-process half of the kill/resume cycles the soak campaigns
// exercise.
var ErrSweepInterrupted = errors.New("core: sweep interrupted")

// errPointAbandoned reports that the sweep was cancelled while a point
// waited to retry: the point does not launch again and records nothing,
// and the sweep reports the interruption.
var errPointAbandoned = errors.New("core: point abandoned")

// KernelPoint is one sweep point: a prebuilt kernel timed on a card at
// an x coordinate, plus where its run lands on a figure. The figure
// builders plan them, and non-figure drivers — the soak campaigns above
// all — put arbitrary generated kernels through the resilient sweep
// runner the same way, with everything the paper sweeps get: worker
// pool, retries with backoff, fault injection, panic fences, failure
// records and resume through the persistent tier.
type KernelPoint struct {
	Card Card
	X    float64
	// Series labels the figure series the point plots into; empty means
	// Card.Label().
	Series string
	// Plot maps a completed run to its figure coordinates; nil means
	// (X, run.Seconds).
	Plot func(Run) (x, y float64)
	K    *il.Sealed
	W, H int
	// ExactDomain marks a point whose W x H is part of what it measures
	// (a hierarchy probe encodes its stride in the surface width), so a
	// plan's domain clamp leaves it alone.
	ExactDomain bool
	// Device is the device the point runs on when it is not its card's
	// built-in one (a synthetic or future spec); nil means
	// device.Lookup(Card.Arch).
	Device *device.Spec
	// Opts and Ablate switch compiler paths and simulated mechanisms off
	// for the ablation study; the zero values launch the kernel as the
	// paper's figures do.
	Opts   ilc.Options
	Ablate sim.Ablations
}

// spec returns the device the point runs on.
func (p KernelPoint) spec() device.Spec {
	if p.Device != nil {
		return *p.Device
	}
	return device.Lookup(p.Card.Arch)
}

// SweepOptions tunes one RunKernelPoints sweep. The zero value runs the
// whole sweep unobserved.
type SweepOptions struct {
	// Observe, when non-nil, is called once per resolved point (a
	// completed run or a failure record), on the worker goroutine that
	// resolved it, so it must be safe for concurrent calls. A point the
	// sweep abandons is never observed. It is the sweep's one per-point
	// hook: the campaign counts and renders progress from it.
	Observe func(Run)
}

// RunKernelPoints is the suite's one sweep entry point: it times every
// point and returns the runs in input order. Device contexts are created
// up front, one per device spec, so a bad card or an invalid custom
// device fails the sweep before any worker starts; the context map
// itself is safe for concurrent lookup and the contexts are read-only
// during launches.
//
// Failure policy, per the cal taxonomy: transient launch failures retry
// up to s.Retries times with doubling backoff; timeouts, exhausted
// transients and recovered panics become per-point failure records
// (Run.Err) and the sweep continues; anything else — a lost device, a
// compile or configuration error — is fatal, cancels the undispatched
// points and fails the sweep.
//
// Each point is observed once: traced as one `unit` span holding its
// attempts' `launch` spans, and passed to opts.Observe when it resolves.
//
// Cancelling parent stops the sweep: undispatched points are abandoned,
// launches in flight complete (and persist), a point waiting to retry
// launches no more, and the sweep returns ErrSweepInterrupted.
// Cancellation is scoped to this sweep alone, so callers multiplexing
// several independent sweeps over ONE shared suite (the campaign daemon)
// cancel just their own.
func (s *Suite) RunKernelPoints(parent context.Context, pts []KernelPoint, opts SweepOptions) ([]Run, error) {
	for _, p := range pts {
		if _, err := s.context(p.spec()); err != nil {
			return nil, err
		}
	}
	runs := make([]Run, len(pts))
	ctr := s.counters()

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu       sync.Mutex
		fatalErr error
	)
	fatal := func(err error) {
		mu.Lock()
		if fatalErr == nil {
			fatalErr = err
			cancel()
		}
		mu.Unlock()
	}

	// A fixed worker set fed from a channel: a 10k-point sweep runs on
	// s.workers() goroutines, not 10k.
	workers := min(s.workers(), len(pts))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run, err := s.runPointResilient(ctx, pts[i])
				if err != nil {
					if !errors.Is(err, errPointAbandoned) {
						fatal(err)
					}
					continue
				}
				runs[i] = run
				if run.Failed() {
					ctr.failed.Inc()
				} else {
					ctr.completed.Inc()
				}
				if opts.Observe != nil {
					opts.Observe(run)
				}
			}
		}()
	}
feed:
	for i := range pts {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Workers are drained, so fatalErr needs no lock from here on.
	if fatalErr != nil {
		return nil, fatalErr
	}
	if parent.Err() != nil {
		ctr.interrupted.Inc()
		return nil, ErrSweepInterrupted
	}
	return runs, nil
}

// runPointResilient drives one point through the retry policy. A non-nil
// error other than errPointAbandoned is fatal for the sweep; recoverable
// failures come back as a Run failure record.
//
// The point is one `unit` span: every attempt's `launch` span and every
// backoff lie inside it, on the lane it leases, so a sweep occupies at
// most one lane per worker. The Enabled guard keeps the untraced path
// free of the label formatting.
func (s *Suite) runPointResilient(ctx context.Context, p KernelPoint) (Run, error) {
	var unit obs.Span
	var card string
	if s.Tracer.Enabled() {
		card = p.Card.Label()
		unit = s.Tracer.Begin("unit").Cat("campaign").Arg("kernel", p.K.Name).Arg("card", card)
	}
	defer unit.End()
	ctr := s.counters()
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	attempt := 0
	for {
		run, err := s.runKernelSafe(unit, card, p, attempt)
		attempt++
		if err == nil {
			run.X = p.X
			run.Attempts = attempt
			return run, nil
		}
		if cal.IsTransient(err) && attempt <= s.Retries && ctx.Err() == nil {
			ctr.retries.Inc()
			ctr.backoffNS.Add(backoff.Nanoseconds())
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				return Run{}, errPointAbandoned
			}
			backoff *= 2
			continue
		}
		var kind error
		switch {
		case errors.Is(err, errLaunchPanic):
			ctr.panics.Inc()
			kind = errLaunchPanic
		case errors.Is(err, cal.ErrKernelTimeout):
			ctr.timeouts.Inc()
			kind = cal.ErrKernelTimeout
		case cal.IsTransient(err):
			kind = cal.ErrLaunchTransient
		default:
			return Run{}, fmt.Errorf("core: %s at x=%g: %w", p.name(), p.X, err)
		}
		return Run{
			Card: p.Card, X: p.X, Attempts: attempt,
			Err:  fmt.Sprintf("%s at x=%g: %v", p.name(), p.X, err),
			kind: kind,
		}, nil
	}
}

// name identifies the point in failure records and fatal errors: its
// series label when it has one (an ablation mechanism, a transcendental
// chain), else its card's.
func (p KernelPoint) name() string {
	if p.Series != "" {
		return p.Series
	}
	return p.Card.Label()
}

// runKernelSafe times one point behind a panic fence: a panicking launch
// on a worker must fail its point, not the process. It is the suite's
// only launch site and runPointResilient its only caller, so every
// launch is counted, traced, watchdog-bound and visible to BeforeLaunch;
// its errors come back unwrapped. The launch span is a child of the
// point's unit span, whose card label it reuses.
func (s *Suite) runKernelSafe(unit obs.Span, card string, p KernelPoint, attempt int) (run Run, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", errLaunchPanic, rec)
		}
	}()
	if s.BeforeLaunch != nil {
		s.BeforeLaunch(p, attempt)
	}
	ctx, err := s.context(p.spec())
	if err != nil {
		return Run{}, err
	}
	// One launch span per attempt; the simulate stage (and, on a store
	// miss, compile/trace/replay inside it) nests under it. The Enabled
	// guard keeps the disabled path free of the fmt work the span
	// arguments need.
	var sp obs.Span
	if s.Tracer.Enabled() {
		sp = unit.Child("launch").
			Arg("kernel", p.K.Name).
			Arg("card", card).
			Arg("domain", fmt.Sprintf("%dx%d", p.W, p.H))
		if attempt > 0 {
			sp = sp.Arg("attempt", fmt.Sprintf("%d", attempt))
		}
	}
	defer sp.End()
	m, err := ctx.LoadModuleWith(p.K, p.Opts)
	if err != nil {
		return Run{}, err
	}
	order, err := p.Card.Order()
	if err != nil {
		return Run{}, err
	}
	s.launched.Add(1)
	ev, err := ctx.Launch(m, cal.LaunchConfig{
		Order: order, W: p.W, H: p.H, Iterations: s.Iterations,
		Ablate: p.Ablate, DeadlineCycles: s.DeadlineCycles, Attempt: attempt,
		Span: sp,
	})
	if err != nil {
		return Run{}, err
	}
	return Run{
		Card:       p.Card,
		Seconds:    ev.ElapsedSeconds(),
		GPRs:       ev.Result.GPRs,
		GPRWrites:  ev.Result.GPRWrites,
		Waves:      ev.Result.WavesPerSIMD,
		HitRate:    ev.Result.HitRate,
		Bottleneck: ev.Bottleneck().String(),
	}, nil
}
