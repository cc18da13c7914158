package hier

import (
	"context"
	"fmt"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
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

// A Measurer runs one probe and returns its effective cycles per fetch.
// Inference is written against this interface so the same algorithm
// runs over the suite's staged pipeline (built-in cards) and over a
// bare simulation of an arbitrary — possibly synthetic — spec.
type Measurer func(Probe) (float64, error)

// SimMeasurer measures probes by compiling and simulating directly
// against the given spec. This is the path synthetic specs take: the
// suite's pipeline and cards key on the built-in arch enum, which a
// synthetic geometry has no entry in.
func SimMeasurer(spec device.Spec, iterations int) Measurer {
	env := EnvFor(spec, iterations)
	return func(p Probe) (float64, error) {
		k, err := p.Kernel()
		if err != nil {
			return 0, err
		}
		prog, err := ilc.Compile(k, spec)
		if err != nil {
			return 0, fmt.Errorf("hier: compiling %s: %w", k.Name, err)
		}
		res, err := sim.Run(sim.Config{
			Spec: spec, Prog: prog, Order: raster.PixelOrder(),
			W: p.Width(), H: p.Height(), Iterations: iterations,
		})
		if err != nil {
			return 0, fmt.Errorf("hier: simulating %s: %w", k.Name, err)
		}
		return env.Lambda(p, res.Seconds), nil
	}
}

// SuiteMeasurer measures probes through the suite's resilient sweep
// runner for a built-in arch — the same staged pipeline (artifact
// cache, replay-prefix snapshots, retries) the campaign scheduler uses,
// so `amdmb infer` exercises the exact path the figures are built on.
func SuiteMeasurer(s *core.Suite, arch device.Arch) Measurer {
	spec := device.Lookup(arch)
	return func(p Probe) (float64, error) {
		k, err := p.Kernel()
		if err != nil {
			return 0, err
		}
		card := core.Card{Arch: arch, Mode: il.Pixel, Type: p.Type}
		runs, err := s.RunKernelPoints(context.Background(), []core.KernelPoint{{
			Card: card, X: float64(p.FootprintBytes()),
			K: k, W: p.Width(), H: p.Height(),
		}}, core.SweepOptions{})
		if err != nil {
			return 0, err
		}
		if runs[0].Failed() {
			return 0, fmt.Errorf("hier: probe %s on %s: %s", k.Name, card.Label(), runs[0].Err)
		}
		return EnvFor(spec, s.Iterations).Lambda(p, runs[0].Seconds), nil
	}
}
