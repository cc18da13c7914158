package hier

import (
	"context"
	"fmt"
	"slices"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// Env holds the launch bookkeeping that converts a probe's wall-clock
// seconds back into per-fetch cycles. These are host-visible dispatch
// parameters (clock, engine count, repetition count), not the cache
// model under test — inference recovers the cache geometry, it does not
// peek at it.
type Env struct {
	ClockMHz    int
	SIMDEngines int
	// Iterations per timed launch, resolved (never zero).
	Iterations int
}

// EnvFor derives the conversion environment for a spec; an iterations
// of zero means sim.DefaultIterations.
func EnvFor(spec device.Spec, iterations int) Env {
	return Env{ClockMHz: spec.CoreClockMHz, SIMDEngines: spec.SIMDEngines, Iterations: sim.Iterations(iterations)}
}

// Lambda converts a probe's timing into effective cycles per fetch: the
// per-wave clause makespan (launch overhead stripped, wave batches
// un-replicated) divided by the fetch slot count. The probes' ballast
// pins residency to one wavefront, so every batch of the launch runs
// the identical single-wave makespan and the division is exact.
func (e Env) Lambda(p Probe, seconds float64) float64 {
	perLaunch := seconds * float64(e.ClockMHz) * 1e6 / float64(e.Iterations)
	waves := p.Width() * p.Height() / raster.WavefrontSize
	if waves < 1 {
		waves = 1
	}
	batches := (waves + e.SIMDEngines - 1) / e.SIMDEngines
	makespan := (perLaunch - float64(sim.LaunchOverheadCycles)) / float64(batches)
	return makespan / float64(p.Slots())
}

// FetchedBytes is the total bytes the probe's launch fetches per
// iteration: every fetch slot of every wavefront pulls one 64-lane
// quantum.
func (e Env) FetchedBytes(p Probe) float64 {
	waves := p.Width() * p.Height() / raster.WavefrontSize
	if waves < 1 {
		waves = 1
	}
	return float64(p.Slots()) * float64(p.QuantumBytes()) * float64(waves)
}

// A Measurer runs a batch of probes and returns each one's effective
// cycles per fetch, in the batch's order. Inference is written against
// this type and hands it, per stage, every probe whose shape no
// unread result decides; SuiteMeasurer is the implementation, for
// built-in and synthetic specs alike, and tests wrap it to record or
// cross-check the probe schedule.
type Measurer func([]Probe) ([]float64, error)

// probePoint plans one probe on spec as a suite sweep point: the shared
// builder of the hierarchy figures and SuiteMeasurer. The point's domain
// is the probe's surface geometry, so no plan clamp may shrink it, and
// it names its device only when spec is not a built-in table entry.
func probePoint(spec device.Spec, p Probe, x float64) (core.KernelPoint, error) {
	k, err := p.Kernel()
	if err != nil {
		return core.KernelPoint{}, err
	}
	pt := core.KernelPoint{
		Card: core.Card{Arch: spec.Arch, Mode: il.Pixel, Type: p.Type},
		X:    x, K: il.Seal(k), W: p.Width(), H: p.Height(),
		ExactDomain: true,
	}
	if !slices.Contains(device.All(), spec) {
		pt.Device = &spec
	}
	return pt, nil
}

// SuiteMeasurer measures each batch of probes on spec as one sweep of
// the suite's resilient sweep runner, so the batch's probes run on the
// suite's workers at once, through the same staged pipeline (artifact
// stores, retries, launch accounting) the
// campaign scheduler uses: `amdmb infer` exercises the exact path the
// figures are built on, and a synthetic spec gets it too. A failed
// probe fails the batch, with the first failed probe's name.
func SuiteMeasurer(s *core.Suite, spec device.Spec) Measurer {
	env := EnvFor(spec, s.Iterations)
	return func(ps []Probe) ([]float64, error) {
		pts := make([]core.KernelPoint, len(ps))
		for i, p := range ps {
			pt, err := probePoint(spec, p, float64(p.FootprintBytes()))
			if err != nil {
				return nil, err
			}
			pts[i] = pt
		}
		runs, err := s.RunKernelPoints(context.Background(), pts, core.SweepOptions{})
		if err != nil {
			return nil, err
		}
		ls := make([]float64, len(ps))
		for i, r := range runs {
			if r.Failed() {
				return nil, fmt.Errorf("hier: probe %s on %s: %w", pts[i].K.Name, pts[i].Card.Label(), r.Failure())
			}
			ls[i] = env.Lambda(ps[i], r.Seconds)
		}
		return ls, nil
	}
}
