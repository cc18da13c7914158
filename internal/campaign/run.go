package campaign

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"amdgpubench/internal/core"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/report"
)

// Campaign metrics, on the suite's shared registry next to the
// core.sweep.* family:
//
//	campaign.figures.planned  — figures in the plan
//	campaign.units.planned    — launch units scheduled, one per figure
//	                            point
//
// The units a run executed, completed or failed are the sweep's own
// core.sweep.points.completed and .failed.

// Result is one executed campaign: per-spec figures and runs (parallel
// to Plan.Specs) and the accounting.
type Result struct {
	Figures []*report.Figure
	Runs    [][]core.Run
	// Executed counts the units this invocation ran: every unit when
	// unsharded, the shard's interleaved slice otherwise. A run that
	// returns no error resolved, and observed, every one of them.
	Executed int
	// Failures are the executed units that resolved to failure records,
	// in unit order: the run's one record of the points it completed
	// around.
	Failures []core.Run
}

// Failed counts executed units that resolved to failure records.
func (r *Result) Failed() int { return len(r.Failures) }

// RunOptions tunes one RunCtx invocation. The zero value runs the whole
// campaign unobserved.
type RunOptions struct {
	// Observe, when non-nil, is called once per executed unit as it
	// resolves (core.SweepOptions.Observe), from worker goroutines, so it
	// must be safe for concurrent calls. The daemon's jobs count their
	// executed and failed units in it.
	Observe func(core.Run)
	// ProgressOut, when non-nil, receives a live single-line progress
	// report over the units this invocation executes (done/total,
	// failures, cache hit rate, ETA; `amdmb -progress`), rendered from
	// the same per-unit hook.
	ProgressOut io.Writer
	// Shard and Shards run one shard of the plan: RunCtx sweeps only the
	// units with index i%Shards == Shard. Shards combine through the
	// suite's persistent tier: shard processes sharing one PersistDir
	// write every launch they finish into it, and an unsharded run over
	// the same directory serves them all from disk — producing figures
	// byte-identical to a run that never sharded. Because one shard holds
	// only a slice of every figure's points, a sharded run assembles no
	// figures: Result.Figures and Result.Runs stay nil. Shards <= 1 runs
	// everything; a Shard outside 0..Shards-1 fails the run.
	Shard, Shards int
}

// Run executes the whole plan on the suite; it is RunCtx with a
// background context and zero options.
func (p *Plan) Run(s *core.Suite) (*Result, error) {
	return p.RunCtx(context.Background(), s, RunOptions{})
}

// RunCtx executes the plan on the suite as ONE resilient sweep over its
// units, then slices the runs back per spec and assembles each spec's
// figure. A launch two figures share runs once: the second point is a
// simulate-store hit, or waits on the first one's in-flight simulation.
// With the store off (DisableArtifactCache) or bypassed (a hang or
// throttle fault), it runs once per point — the same result, since a
// launch is a deterministic function of its identity. A campaign killed
// midway resumes by rerunning it over the same PersistDir: every unit it
// finished is served from the persistent tier.
//
// The returned error is the sweep's own (fatal pipeline errors, or
// core.ErrSweepInterrupted verbatim so callers can errors.Is on it).
// Cancelling ctx interrupts just this campaign's sweep, leaving any
// other sweep on the suite running — what callers running several
// campaigns on ONE shared suite (the daemon) need.
func (p *Plan) RunCtx(ctx context.Context, s *core.Suite, opts RunOptions) (*Result, error) {
	shards := max(opts.Shards, 1)
	if opts.Shard < 0 || opts.Shard >= shards {
		return nil, fmt.Errorf("campaign: shard %d out of range 0..%d", opts.Shard, shards-1)
	}
	sharded := shards > 1
	units := p.Units
	if sharded {
		units = nil
		for i := opts.Shard; i < len(p.Units); i += shards {
			units = append(units, p.Units[i])
		}
	}

	m := s.Metrics()
	m.Counter("campaign.figures.planned").Add(int64(len(p.Specs)))
	m.Counter("campaign.units.planned").Add(int64(len(p.Units)))

	root := s.Tracer.Begin("campaign").Cat("campaign").
		Arg("figures", strconv.Itoa(len(p.Specs))).
		Arg("units", strconv.Itoa(len(p.Units)))
	if sharded {
		root.Arg("shard", fmt.Sprintf("%d/%d", opts.Shard, opts.Shards))
	}
	defer root.End()

	observe := opts.Observe
	if opts.ProgressOut != nil {
		prog := obs.NewProgress(opts.ProgressOut, "sweep", len(units))
		defer prog.Finish()
		observe = func(r core.Run) {
			prog.Point(r.Failed(), s.Pipeline().HitRate())
			if opts.Observe != nil {
				opts.Observe(r)
			}
		}
	}

	runs, err := s.RunKernelPoints(ctx, units, core.SweepOptions{Observe: observe})
	if err != nil {
		return nil, err
	}

	res := &Result{Executed: len(units)}
	for _, r := range runs {
		if r.Failed() {
			res.Failures = append(res.Failures, r)
		}
	}
	if sharded {
		// A shard holds only a slice of every figure; figures assemble
		// from the shared cache dir in the follow-up unsharded run.
		return res, nil
	}
	for _, sp := range p.Specs {
		spec := sp.Figure
		figRuns := runs[:len(spec.Points):len(spec.Points)]
		runs = runs[len(spec.Points):]
		spec.Assemble(figRuns)
		res.Figures = append(res.Figures, spec.Fig)
		res.Runs = append(res.Runs, figRuns)
	}
	return res, nil
}
