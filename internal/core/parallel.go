package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"amdgpubench/internal/cal"
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
	// Opts and Ablate switch compiler paths and simulated mechanisms off
	// for the ablation study; the zero values launch the kernel as the
	// paper's figures do.
	Opts   ilc.Options
	Ablate sim.Ablations
}

// SweepOptions tunes one RunKernelPoints sweep. The zero value runs the
// whole sweep unobserved.
type SweepOptions struct {
	// Observe, when non-nil, is called on the worker goroutine just
	// before point i's first launch attempt; the function it returns is
	// called right after the point resolves (completed or failure
	// record). The campaign scheduler uses the hook for per-unit spans
	// and counters without a second accounting path inside the sweep
	// runner.
	Observe func(i int) func(Run)
}

// RunKernelPoints is the suite's one sweep entry point: it times every
// point and returns the runs in input order. Device contexts are created
// up front so a bad card fails the sweep before any worker starts; the
// context map itself is safe for concurrent lookup and the contexts are
// read-only during launches.
//
// Failure policy, per the cal taxonomy: transient launch failures retry
// up to s.Retries times with doubling backoff; timeouts, exhausted
// transients and recovered panics become per-point failure records
// (Run.Err) and the sweep continues; anything else — a lost device, a
// compile or configuration error — is fatal, cancels the undispatched
// points and fails the sweep.
//
// Cancelling parent stops the sweep: undispatched points are abandoned,
// launches in flight complete (and persist), a point waiting to retry
// launches no more, and the sweep returns ErrSweepInterrupted.
// Cancellation is scoped to this sweep alone, so callers multiplexing
// several independent sweeps over ONE shared suite (the campaign daemon)
// cancel just their own.
func (s *Suite) RunKernelPoints(parent context.Context, pts []KernelPoint, opts SweepOptions) ([]Run, error) {
	for _, p := range pts {
		if _, err := s.context(p.Card.Arch); err != nil {
			return nil, err
		}
	}
	runs := make([]Run, len(pts))
	ctr := s.counters()

	var prog *obs.Progress
	if s.Progress != nil {
		prog = obs.NewProgress(s.Progress, "sweep", len(pts))
		defer prog.Finish()
	}

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
				var end func(Run)
				if opts.Observe != nil {
					end = opts.Observe(i)
				}
				run, err := s.runPointResilient(ctx, pts[i])
				if err != nil {
					if !errors.Is(err, errPointAbandoned) {
						fatal(err)
					}
					continue
				}
				if end != nil {
					end(run)
				}
				runs[i] = run
				if run.Failed() {
					ctr.failed.Inc()
				} else {
					ctr.completed.Inc()
				}
				if prog != nil {
					prog.Point(run.Failed(), s.Pipeline().HitRate())
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
func (s *Suite) runPointResilient(ctx context.Context, p KernelPoint) (Run, error) {
	ctr := s.counters()
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	attempt := 0
	for {
		run, err := s.runKernelSafe(p, attempt)
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
		if errors.Is(err, errLaunchPanic) {
			ctr.panics.Inc()
		}
		if errors.Is(err, cal.ErrKernelTimeout) {
			ctr.timeouts.Inc()
		}
		if cal.IsRecoverable(err) || errors.Is(err, errLaunchPanic) {
			return Run{
				Card: p.Card, X: p.X, Attempts: attempt,
				Err: fmt.Sprintf("%s at x=%g: %v", p.Card.Label(), p.X, err),
			}, nil
		}
		return Run{}, fmt.Errorf("core: %s at x=%g: %w", p.Card.Label(), p.X, err)
	}
}

// runKernelSafe times one point behind a panic fence: a panicking launch
// on a worker must fail its point, not the process. It is the suite's
// only launch site, so every launch is counted, traced, watchdog-bound
// and visible to BeforeLaunch; its errors come back unwrapped.
func (s *Suite) runKernelSafe(p KernelPoint, attempt int) (run Run, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", errLaunchPanic, rec)
		}
	}()
	if s.BeforeLaunch != nil {
		s.BeforeLaunch(p, attempt)
	}
	ctx, err := s.context(p.Card.Arch)
	if err != nil {
		return Run{}, err
	}
	// One root span per launch; the simulate stage (and, on a store
	// miss, compile/trace/replay inside it) nests under it. The Enabled
	// guard keeps the disabled path free of the fmt work the span
	// arguments need.
	var sp obs.Span
	if s.Tracer.Enabled() {
		sp = s.Tracer.Begin("launch").
			Arg("kernel", p.K.Name).
			Arg("card", p.Card.Label()).
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
		Waves:      ev.Result.WavesPerSIMD,
		HitRate:    ev.Result.HitRate,
		Bottleneck: ev.Bottleneck().String(),
	}, nil
}
