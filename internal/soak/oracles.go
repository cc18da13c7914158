package soak

import (
	"context"
	"fmt"

	"amdgpubench/internal/conformance"
	"amdgpubench/internal/core"
	"amdgpubench/internal/il"
)

// Violation is one invariant the campaign caught breaking: which
// oracle, at which step, with enough detail to read and — when a kernel
// is implicated — the (shrunk) kernel and sweep coordinates to replay
// it from a bundle.
type Violation struct {
	Oracle string
	Step   int
	Detail string
	// Kernel is the implicated kernel after shrinking, nil for oracles
	// that are not kernel-specific (conservation, metrics, trace).
	Kernel *il.Kernel
	// ShrunkFrom is the implicated kernel's instruction count before
	// shrinking (0 when no kernel or shrinking did not apply).
	ShrunkFrom int
	// Point is the sweep coordinate the violation reproduces at.
	Point core.KernelPoint
	// Bundle is the repro bundle directory, when one was written.
	Bundle string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s oracle violated at step %d: %s", v.Oracle, v.Step, v.Detail)
}

// runOracles checks every oracle the step planned against its results.
// The suite is quiescent: the sweep returned, so counter snapshots are
// stable.
func (c *campaign) runOracles(st step, runs []core.Run) {
	for _, o := range st.Oracles {
		switch o {
		case OracleDeterminism:
			c.checkDeterminism(st, runs)
		case OracleConservation:
			c.checkConservation(st)
		case OracleMetrics:
			c.checkMetrics(st)
		case OracleTrace:
			c.checkTrace(st)
		case OracleCheckpoint:
			c.checkResumeIdentity(st, runs)
		case OracleInjected:
			c.checkInjected(st)
		}
	}
}

// record registers a violation, shrinking the implicated kernel when a
// predicate is supplied and writing a repro bundle when BundleDir is
// set. pred must hold on the original kernel; Shrink returns the
// original unchanged if it somehow does not.
func (c *campaign) record(v Violation, pred conformance.Pred) {
	if v.Kernel != nil && pred != nil {
		v.ShrunkFrom = len(v.Kernel.Code)
		v.Kernel = conformance.Shrink(v.Kernel, pred)
		v.Point.K = il.Seal(v.Kernel)
	}
	if c.cfg.BundleDir != "" {
		dir, err := writeBundle(c.cfg, v)
		if err != nil {
			v.Detail += fmt.Sprintf(" (bundle write failed: %v)", err)
		} else {
			v.Bundle = dir
			c.report.Bundles = append(c.report.Bundles, dir)
		}
	}
	c.report.Violations = append(c.report.Violations, v)
}

// kernelOf returns a soak point's kernel. Soak seals every kernel it
// makes eagerly (il.Seal), so there is no build to fail.
func kernelOf(p core.KernelPoint) *il.Kernel {
	k, _ := p.K.Kernel()
	return k
}

// checkDeterminism replays the step's probe point on a fresh suite with
// the artifact caches disabled and demands a bitwise-identical Run. The
// campaign suite is warm — its caches have served hundreds of launches
// — so this is the cached-vs-uncached identity the pipeline
// promises, checked continuously under adversity.
func (c *campaign) checkDeterminism(st step, runs []core.Run) {
	if len(runs) == 0 {
		return
	}
	p := st.points[st.Probe]
	got := runs[st.Probe]
	ref, err := c.referenceRun(p)
	if err != nil {
		c.record(Violation{
			Oracle: OracleDeterminism, Step: st.Index, Kernel: kernelOf(p), Point: p,
			Detail: fmt.Sprintf("reference recompute of %s at x=%g failed: %v", p.K.Name, p.X, err),
		}, nil)
		return
	}
	if got != ref {
		v := Violation{
			Oracle: OracleDeterminism, Step: st.Index, Kernel: kernelOf(p), Point: p,
			Detail: fmt.Sprintf("probe %s at x=%g diverged from reference recompute:\n  campaign:  %+v\n  reference: %+v",
				p.K.Name, p.X, got, ref),
		}
		c.record(v, c.determinismPred(p))
	}
}

// referenceRun recomputes one point from scratch: fresh suite, caches
// off, same fault plan and launch policy.
func (c *campaign) referenceRun(p core.KernelPoint) (core.Run, error) {
	s := newSuite(c.cfg)
	s.DisableArtifactCache = true
	runs, err := s.RunKernelPoints(context.Background(), []core.KernelPoint{p}, core.SweepOptions{})
	if err != nil {
		return core.Run{}, err
	}
	return runs[0], nil
}

// determinismPred rebuilds the divergence check for shrink candidates:
// does a fresh cached run of the candidate kernel still disagree with a
// fresh uncached one at the probe's coordinates?
func (c *campaign) determinismPred(p core.KernelPoint) conformance.Pred {
	return func(k *il.Kernel) bool {
		q := p
		q.K = il.Seal(k)
		cached := newSuite(c.cfg)
		a, err := cached.RunKernelPoints(context.Background(), []core.KernelPoint{q}, core.SweepOptions{})
		if err != nil {
			return false
		}
		b, err := c.referenceRun(q)
		if err != nil {
			return false
		}
		return a[0] != b
	}
}

// checkConservation runs the replay conservation laws on the step's
// drawn geometry: every fetch the trace issues must be accounted hit or
// miss, bytes must balance, no negative counters — regardless of
// device, walk order, residency or layout.
func (c *campaign) checkConservation(st step) {
	if err := conformance.CheckReplayConservation(st.consGeom); err != nil {
		c.record(Violation{
			Oracle: OracleConservation, Step: st.Index,
			Detail: fmt.Sprintf("geometry %s %dx%d waves=%d elem=%dB: %v",
				st.consGeom.Spec.Arch, st.consGeom.W, st.consGeom.H,
				st.consGeom.ResidentWaves, st.consGeom.ElemBytes, err),
		}, nil)
	}
}

// checkMetrics cross-checks two independent accountings of the same
// campaign: the suite's own launch counter vs the cal layer's metric,
// and the sweep counters vs the campaign's own point bookkeeping.
func (c *campaign) checkMetrics(st step) {
	snap := c.suite.Metrics().Snapshot()
	fail := func(detail string) {
		c.record(Violation{Oracle: OracleMetrics, Step: st.Index, Detail: detail}, nil)
	}
	if got, want := snap.Get("cal.launches"), c.suite.KernelLaunches(); got != want {
		fail(fmt.Sprintf("cal.launches=%d but suite issued %d", got, want))
	}
	done := snap.Get("core.sweep.points.completed")
	failed := snap.Get("core.sweep.points.failed")
	if done+failed != c.sweptPoints {
		fail(fmt.Sprintf("sweep counters completed=%d failed=%d but campaign swept %d points",
			done, failed, c.sweptPoints))
	}
	if failed != c.sweptFailed {
		fail(fmt.Sprintf("core.sweep.points.failed=%d but campaign recorded %d failures",
			failed, c.sweptFailed))
	}
}

// checkTrace demands one "launch" span per launch the suite
// issued: a launch the tracer missed (or invented) is an observability
// lie waiting to mislead a profile.
func (c *campaign) checkTrace(st step) {
	if c.tracer == nil {
		return
	}
	spans := int64(0)
	for _, sp := range c.tracer.Snapshot() {
		if sp.Name == "launch" {
			spans++
		}
	}
	if want := c.suite.KernelLaunches(); spans != want {
		c.record(Violation{
			Oracle: OracleTrace, Step: st.Index,
			Detail: fmt.Sprintf("%d launch spans recorded for %d launches", spans, want),
		}, nil)
	}
}

// checkResumeIdentity compares the kill/resume cycle's results
// against an uninterrupted reference sweep of the same points on a
// fresh suite: resuming over the persistent tier must be invisible in
// the output, bit for bit, Run for Run.
func (c *campaign) checkResumeIdentity(st step, runs []core.Run) {
	ref, err := newSuite(c.cfg).RunKernelPoints(context.Background(), st.points, core.SweepOptions{})
	if err != nil {
		c.record(Violation{
			Oracle: OracleCheckpoint, Step: st.Index,
			Detail: fmt.Sprintf("uninterrupted reference sweep failed: %v", err),
		}, nil)
		return
	}
	for i := range ref {
		if runs[i] != ref[i] {
			p := st.points[i]
			c.record(Violation{
				Oracle: OracleCheckpoint, Step: st.Index, Kernel: kernelOf(p), Point: p,
				Detail: fmt.Sprintf("point %d (%s at x=%g) after kill@%d+resume:\n  resumed:   %+v\n  reference: %+v",
					i, p.K.Name, p.X, st.KillAt, runs[i], ref[i]),
			}, nil)
		}
	}
}

// checkInjected runs the configured test oracle over the step's
// kernels. It exists to prove the violation path end to end: a fault
// planted here must come out the other side as a shrunk, replayable
// bundle.
func (c *campaign) checkInjected(st step) {
	for _, p := range st.points {
		if err := c.cfg.TestOracle(kernelOf(p)); err != nil {
			c.record(Violation{
				Oracle: OracleInjected, Step: st.Index, Kernel: kernelOf(p), Point: p,
				Detail: fmt.Sprintf("injected oracle rejected %s: %v", p.K.Name, err),
			}, func(k *il.Kernel) bool { return c.cfg.TestOracle(k) != nil })
			return // one bundle per step is plenty
		}
	}
}
