package hier

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// inferIters keeps test probes cheap: the simulation is deterministic,
// so the per-launch cycle counts — and therefore the inference — are
// identical at any iteration count.
const inferIters = 100

// inferSuite is the suite the inference tests measure through. Parallel
// subtests share it and its artifact stores.
func inferSuite() *core.Suite {
	s := core.NewSuite()
	s.Iterations = inferIters
	return s
}

// TestInferBuiltinsExact is the suite proving its own cache model: for
// every built-in device, inference over measured curves alone must
// recover L1/L2 capacity, line size and associativity bit-exactly, and
// the miss-hit latency delta within tolerance.
func TestInferBuiltinsExact(t *testing.T) {
	s := inferSuite()
	for _, spec := range device.All() {
		spec := spec
		t.Run(spec.Arch.CardName(), func(t *testing.T) {
			t.Parallel()
			inf, err := Infer(SuiteMeasurer(s, spec), Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range inf.Diff(spec) {
				t.Error(m)
			}
			if inf.Probes == 0 {
				t.Error("inference reported zero probes")
			}
		})
	}
}

// directLambda is the independent oracle for one probe: compile and
// simulate it on spec directly, bypassing the suite's sweep runner and
// every pipeline store.
func directLambda(spec device.Spec, p Probe) (float64, error) {
	k, err := p.Kernel()
	if err != nil {
		return 0, err
	}
	prog, err := ilc.Compile(k, spec)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(sim.Config{
		Spec: spec, Prog: prog, Order: raster.PixelOrder(),
		W: p.Width(), H: p.Height(), Iterations: inferIters,
	})
	if err != nil {
		return 0, err
	}
	return EnvFor(spec, inferIters).Lambda(p, res.Seconds), nil
}

// TestInferSuiteMatchesDirectSim checks the suite path probe for probe:
// every probe the inference schedules on a built-in and on a synthetic
// spec must measure, through the suite's staged pipeline, exactly the
// cycles per fetch a direct compile and simulation gives.
func TestInferSuiteMatchesDirectSim(t *testing.T) {
	s := inferSuite()
	for _, spec := range []device.Spec{device.Lookup(device.RV870), SynthSpec(7)} {
		m := SuiteMeasurer(s, spec)
		probes := 0
		checked := func(ps []Probe) ([]float64, error) {
			got, err := m(ps)
			if err != nil {
				return nil, err
			}
			for i, p := range ps {
				want, err := directLambda(spec, p)
				if err != nil {
					return nil, err
				}
				if got[i] != want {
					t.Errorf("L1 %d B/%d ways, probe %+v: suite %v cycles/fetch, direct %v",
						spec.L1CacheBytes, spec.L1Ways, p, got[i], want)
				}
			}
			probes += len(ps)
			return got, nil
		}
		inf, err := Infer(checked, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range inf.Diff(spec) {
			t.Error(m)
		}
		if probes == 0 || probes != inf.Probes {
			t.Errorf("checked %d probes, inference measured %d", probes, inf.Probes)
		}
	}
}

// TestInferSynthetics is the property test: ~50 seeded synthetic cache
// geometries drawn from the supported space, every one recovered
// exactly through the suite's pipeline. Table-driven so CI can run it
// under -race.
func TestInferSynthetics(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	s := inferSuite()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			spec := SynthSpec(seed)
			if err := spec.Validate(); err != nil {
				t.Fatalf("synthetic spec invalid: %v", err)
			}
			inf, err := Infer(SuiteMeasurer(s, spec), Config{})
			if err != nil {
				t.Fatalf("C1=%d L=%d w1=%d C2=%d w2=%d: %v",
					spec.L1CacheBytes, spec.L1LineBytes, spec.L1Ways,
					spec.L2CacheBytes, spec.L2Ways, err)
			}
			for _, m := range inf.Diff(spec) {
				t.Errorf("C1=%d L=%d w1=%d C2=%d w2=%d: %s",
					spec.L1CacheBytes, spec.L1LineBytes, spec.L1Ways,
					spec.L2CacheBytes, spec.L2Ways, m)
			}
		})
	}
}

func TestSynthSpecDeterministicAndInSpace(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a, b := SynthSpec(seed), SynthSpec(seed)
		if a != b {
			t.Fatalf("seed %d: SynthSpec not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.L1CacheBytes < 4<<10 || a.L1CacheBytes > 32<<10 {
			t.Errorf("seed %d: L1 %d outside [4K,32K]", seed, a.L1CacheBytes)
		}
		if a.L2CacheBytes < 4*a.L1CacheBytes || a.L2CacheBytes%(32<<10) != 0 {
			t.Errorf("seed %d: L2 %d violates multiple-of-32K >= 4xL1", seed, a.L2CacheBytes)
		}
		if a.L2Ways < 2*a.L1Ways || a.L2Ways > 16 {
			t.Errorf("seed %d: L2 ways %d outside [2x%d,16]", seed, a.L2Ways, a.L1Ways)
		}
		if d := a.TexMissLatency - a.TexHitLatency; d < 300 {
			t.Errorf("seed %d: miss delta %d below 300", seed, d)
		}
	}
}

// TestDiffFlagsMismatches: Diff must actually catch a wrong model — the
// exit-nonzero contract of `amdmb infer` rests on it.
func TestDiffFlagsMismatches(t *testing.T) {
	spec := device.Lookup(device.RV770)
	inf := Inferred{
		L1Bytes: spec.L1CacheBytes * 2, L1LineBytes: spec.L1LineBytes,
		L1Ways: spec.L1Ways, L2Bytes: spec.L2CacheBytes, L2Ways: spec.L2Ways,
		MissDelta: float64(spec.TexMissLatency-spec.TexHitLatency) * 2,
	}
	ms := inf.Diff(spec)
	if len(ms) != 2 {
		t.Fatalf("got %d mismatches %v, want 2 (l1-bytes, miss-delta)", len(ms), ms)
	}
	if ms[0].Param != "l1-bytes" || ms[1].Param != "miss-delta" {
		t.Errorf("mismatch params %v", ms)
	}
	exactMatch := Inferred{
		L1Bytes: spec.L1CacheBytes, L1LineBytes: spec.L1LineBytes,
		L1Ways: spec.L1Ways, L2Bytes: spec.L2CacheBytes, L2Ways: spec.L2Ways,
		MissDelta: float64(spec.TexMissLatency - spec.TexHitLatency),
	}
	if ms := exactMatch.Diff(spec); len(ms) != 0 {
		t.Errorf("exact model reported mismatches: %v", ms)
	}
}

// TestSuiteMeasurerKeepsTimeoutKind: a probe the watchdog aborts fails
// its whole batch with an error that names that probe and that
// errors.Is sees as a timeout, its text the failure record's. Under a
// 1000-cycle budget every probe times out and the batch reports the
// first; with one probe hung by fault injection, the batch reports
// that one, though the probe before it measured.
func TestSuiteMeasurerKeepsTimeoutKind(t *testing.T) {
	spec := device.Lookup(device.RV770)
	hot := Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 2, Rounds: 32, Batch: 1}
	wide := Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 3, Rounds: 32, Batch: 1}
	hang, err := fault.Parse("hang:prob=1,match=" + wide.name())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		deadline uint64
		faults   *fault.Plan
		failed   Probe
	}{
		{"1000-cycle budget", 1000, nil, hot},
		{"one probe hung", 0, hang, wide},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := inferSuite()
			s.DeadlineCycles, s.Faults = tc.deadline, tc.faults
			_, err := SuiteMeasurer(s, spec)([]Probe{hot, wide})
			if !errors.Is(err, cal.ErrKernelTimeout) {
				t.Fatalf("got %v, want cal.ErrKernelTimeout", err)
			}
			if !strings.Contains(err.Error(), "hier: probe "+tc.failed.name()+" ") || !strings.Contains(err.Error(), "kernel timeout") {
				t.Errorf("measurer error %q does not name probe %s or lost its failure text", err, tc.failed.name())
			}
		})
	}
}

// TestSimulateStoreIsInferencesOnlyDedup: Infer keeps no memo of its
// own, and needs none. Its schedule repeats no probe, within a batch or
// across batches (a recording measurer checks), so a first run
// simulates each one once; a second run on the same suite launches every
// probe again and the simulate store serves them all, with the first
// run's result.
func TestSimulateStoreIsInferencesOnlyDedup(t *testing.T) {
	s := inferSuite()
	spec := device.Lookup(device.RV770)
	counts := func() (misses, launches int64) {
		snap := s.Metrics().Snapshot()
		return snap.Get("pipeline.simulate.misses"), snap.Get("cal.launches")
	}
	m := SuiteMeasurer(s, spec)
	seen := map[Probe]bool{}
	record := func(ps []Probe) ([]float64, error) {
		for _, p := range ps {
			if seen[p] {
				t.Errorf("probe %+v measured twice", p)
			}
			seen[p] = true
		}
		return m(ps)
	}
	first, err := Infer(record, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != first.Probes {
		t.Errorf("recorded %d distinct probes, inference counted %d", len(seen), first.Probes)
	}
	misses, launches := counts()
	if misses != int64(first.Probes) {
		t.Errorf("first run simulated %d probes, measured %d", misses, first.Probes)
	}
	again, err := Infer(SuiteMeasurer(s, spec), Config{})
	if err != nil {
		t.Fatal(err)
	}
	misses2, launches2 := counts()
	if d := misses2 - misses; d != 0 {
		t.Errorf("second run added %d simulate misses, want 0", d)
	}
	if d := launches2 - launches; d != int64(again.Probes) {
		t.Errorf("second run added %d launches, want one per probe (%d)", d, again.Probes)
	}
	if again != first {
		t.Errorf("second run inferred %+v, first %+v", again, first)
	}
}
