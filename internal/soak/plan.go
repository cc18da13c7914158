// Package soak drives adversarial stress campaigns against the whole
// suite: seeded random kernels (the conformance generator's full IL
// surface) pushed through the real launch pipeline under deterministic
// fault injection, in-process kill/resume cycles, and concurrent
// artifact-cache churn, with continuous invariant oracles checking
// bitwise determinism, replay conservation, metrics/trace accounting
// and resume identity after every step. An oracle
// violation is shrunk to a minimal kernel (internal/conformance) and
// written as a replayable repro bundle.
//
// Everything a campaign does derives from one seed: step i's kernels,
// cards, domains, fault draws, kill ordinals and oracle probes all come
// from a splitmix-derived per-step rng, so `soak -seed S` twice is the
// same campaign twice — the property every repro bundle leans on.
package soak

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/conformance"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// Config parameterises a campaign. The zero value is usable: an 8-step,
// fault-free, churn-free campaign at seed 0.
type Config struct {
	// Seed determines the entire campaign: kernels, fault schedule, kill
	// ordinals, oracle probes.
	Seed int64
	// Steps bounds the campaign length; zero with a zero Duration means 8.
	Steps int
	// Duration, when positive, stops the campaign once elapsed (checked
	// between steps). Step contents still depend only on Seed and the
	// step index, so a duration-bounded campaign is a prefix of the
	// equivalent unbounded one.
	Duration time.Duration
	// KernelsPerStep is the sweep width per step; zero means 4.
	KernelsPerStep int
	// Faults arms deterministic fault injection on every launch.
	Faults *fault.Plan
	// KillEvery makes every KillEvery-th step a kill/resume cycle: the
	// sweep runs over a persistent cache dir, is interrupted at a
	// deterministic launch ordinal, resumed over the same dir, and the
	// resumed results are compared bit-for-bit against an uninterrupted
	// reference. Zero disables.
	KillEvery int
	// ChurnWorkers runs that many goroutines compiling random kernels
	// against the campaign suite's shared artifact caches while each
	// sweep is in flight — contention the caches must absorb without
	// changing any result. Zero disables.
	ChurnWorkers int
	// Workers bounds sweep parallelism (core.Suite.Workers).
	Workers int
	// Retries bounds transient-fault retries per point; zero means 2.
	Retries int
	// MaxDomain, when positive, clamps every planned point's domain to
	// at most MaxDomain x MaxDomain.
	MaxDomain int
	// Trace arms a span tracer on the campaign suite and the trace
	// consistency oracle. Span memory grows with campaign length; leave
	// it off for hours-long runs.
	Trace bool
	// ScratchDir holds the kill/resume cycles' persistent cache dirs;
	// empty means a temp dir removed when the campaign ends.
	ScratchDir string
	// BundleDir receives repro bundles for oracle violations; empty
	// disables bundle writing (violations are still reported).
	BundleDir string
	// Out, when non-nil, receives one deterministic progress line per
	// step.
	Out io.Writer
	// FailFast stops the campaign at the first oracle violation.
	FailFast bool
	// TestOracle, when non-nil, is an extra per-kernel oracle — the test
	// hook the acceptance criteria require: an injected violation must
	// flow through shrinking into a replayable bundle exactly like a
	// real one.
	TestOracle func(*il.Kernel) error
}

// Scenario names for StepPlan.Scenario.
const (
	ScenarioSweep      = "sweep"
	ScenarioKillResume = "killresume"
)

// Oracle names, as they appear in StepPlan.Oracles, Violation.Oracle and
// bundle metadata.
const (
	OracleDeterminism  = "determinism"
	OracleConservation = "conservation"
	OracleMetrics      = "metrics"
	OracleTrace        = "trace"
	// OracleCheckpoint checks kill/resume identity; the rendered name
	// predates resume moving onto the persistent tier and stays so plan
	// renderings and repro bundles keep their meaning.
	OracleCheckpoint = "checkpoint-identity"
	OracleInjected   = "injected"
)

// PointPlan is one planned sweep point, as rendered in the campaign
// plan: which kernel (name plus structural hash prefix) runs on which
// card at which domain, and what the fault plan will inject on its
// first attempt.
type PointPlan struct {
	Kernel string
	Hash   string // first 8 bytes of il.Kernel.Hash, hex
	Card   string
	X      float64
	W, H   int
	Inject string // attempt-0 fault draw; "none" when clear
}

// StepPlan is one planned campaign step.
type StepPlan struct {
	Index    int
	Scenario string
	// KillAt is the launch ordinal the kill/resume scenario interrupts
	// at (1 = before the first launch completes); zero for sweep steps.
	KillAt int
	// Probe is the point index the determinism oracle replays.
	Probe   int
	Oracles []string
	Points  []PointPlan
}

// step is a fully materialised plan step: the rendered StepPlan plus
// everything execution needs. All randomness is drawn here, in one
// fixed order, so planning and execution cannot disagree.
type step struct {
	StepPlan
	points   []core.KernelPoint
	consGeom cache.TraceConfig
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Steps <= 0 && c.Duration <= 0 {
		c.Steps = 8
	}
	if c.KernelsPerStep <= 0 {
		c.KernelsPerStep = 4
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	return c
}

// mix is splitmix64's finalizer: the per-step seed derivation.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stepRNG derives step i's generator from the campaign seed. Each step
// is independent: step 7 of a 30s campaign is step 7 of a 30-step one.
func stepRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed) ^ mix(uint64(i)+1)))))
}

// soakDomains are the domain edge lengths campaigns sweep. Small enough
// that a smoke campaign's step is sub-second, large enough to cross
// wavefront and tile boundaries.
var soakDomains = []int{32, 48, 64}

// planStep materialises step i of the campaign cfg describes. It is a
// pure function of (cfg.Seed, cfg knobs, i).
func planStep(cfg Config, i int) step {
	rng := stepRNG(cfg.Seed, i)
	st := step{StepPlan: StepPlan{Index: i, Scenario: ScenarioSweep}}
	if cfg.KillEvery > 0 && (i+1)%cfg.KillEvery == 0 {
		st.Scenario = ScenarioKillResume
	}

	for j := 0; j < cfg.KernelsPerStep; j++ {
		k := conformance.RandomKernel(rng)
		spec := conformance.SpecFor(k, uint8(rng.Intn(256)))
		card := core.Card{Arch: spec.Arch, Mode: k.Mode, Type: k.Type}
		if k.Mode == il.Compute && rng.Intn(2) == 1 {
			card.BlockW, card.BlockH = 4, 16
		}
		w := soakDomains[rng.Intn(len(soakDomains))]
		h := soakDomains[rng.Intn(len(soakDomains))]
		if cfg.MaxDomain > 0 {
			w, h = min(w, cfg.MaxDomain), min(h, cfg.MaxDomain)
		}
		x := float64(i*100 + j)
		sk := il.Seal(k)
		st.points = append(st.points, core.KernelPoint{Card: card, X: x, K: sk, W: w, H: h})

		sum := sk.Hash()
		st.Points = append(st.Points, PointPlan{
			Kernel: k.Name,
			Hash:   fmt.Sprintf("%x", sum[:8]),
			Card:   card.Label(),
			X:      x,
			W:      w,
			H:      h,
			Inject: cfg.Faults.Draw(k.Name, fault.Key(k.Name, card.Arch.String(), w, h, 0)).String(),
		})
	}

	if st.Scenario == ScenarioKillResume {
		// Interrupt somewhere strictly inside the sweep: after at least
		// one launch has been requested, before the last could be.
		st.KillAt = 1 + rng.Intn(max(1, len(st.points)-1))
	}
	st.Probe = rng.Intn(len(st.points))
	st.consGeom = conservationGeom(rng)

	st.Oracles = []string{OracleDeterminism, OracleConservation, OracleMetrics}
	if cfg.Trace {
		st.Oracles = append(st.Oracles, OracleTrace)
	}
	if st.Scenario == ScenarioKillResume {
		st.Oracles = append(st.Oracles, OracleCheckpoint)
	}
	if cfg.TestOracle != nil {
		st.Oracles = append(st.Oracles, OracleInjected)
	}
	return st
}

// conservationGeom draws a replay geometry for the conservation oracle:
// arbitrary device, walk order, domain and residency, always valid for
// CheckReplayConservation.
func conservationGeom(rng *rand.Rand) cache.TraceConfig {
	all := device.All()
	spec := all[rng.Intn(len(all))]
	order := raster.PixelOrder()
	switch rng.Intn(3) {
	case 1:
		order = raster.Naive64x1()
	case 2:
		order = raster.Block4x16()
	}
	elem := 4
	if rng.Intn(2) == 1 {
		elem = 16
	}
	return cache.TraceConfig{
		Spec:          spec,
		Order:         order,
		W:             16 * (1 + rng.Intn(4)),
		H:             16 * (1 + rng.Intn(4)),
		ElemBytes:     elem,
		NumInputs:     1 + rng.Intn(3),
		ResidentWaves: 1 + rng.Intn(4),
		LinearLayout:  rng.Intn(2) == 1,
	}
}

// Plan returns the first n steps of the campaign cfg describes, without
// executing anything. `amdmb soak -plan` prints it; the plan golden test
// pins it against drift, because a silent plan change invalidates every
// recorded repro bundle's seed.
func Plan(cfg Config, n int) []StepPlan {
	cfg = cfg.withDefaults()
	out := make([]StepPlan, n)
	for i := 0; i < n; i++ {
		out[i] = planStep(cfg, i).StepPlan
	}
	return out
}

// RenderPlan renders steps the way `amdmb soak -plan` prints them: one
// line per step, one indented line per point. The format is pinned by
// testdata/plan_seed42.golden.
func RenderPlan(w io.Writer, steps []StepPlan) {
	for _, st := range steps {
		fmt.Fprintf(w, "step %d %s", st.Index, st.Scenario)
		if st.Scenario == ScenarioKillResume {
			fmt.Fprintf(w, " kill_at=%d", st.KillAt)
		}
		fmt.Fprintf(w, " probe=%d oracles=%s\n", st.Probe, strings.Join(st.Oracles, ","))
		for j, p := range st.Points {
			fmt.Fprintf(w, "  point %d %s hash=%s card=%q x=%g domain=%dx%d inject=%s\n",
				j, p.Kernel, p.Hash, p.Card, p.X, p.W, p.H, p.Inject)
		}
	}
}
