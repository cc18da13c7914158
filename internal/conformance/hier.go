package conformance

// Memory-hierarchy metamorphic invariants: properties of the dissection
// probes (internal/hier) that hold for any cache geometry, checkable
// without knowing the geometry. They pin the two assumptions the
// inference rests on — growing a working set never makes fetches
// cheaper, and the recovered model is a property of the device, not of
// the order the probes happened to run in.

import (
	"fmt"
	"math/rand"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
)

// hierMonotoneSlack is the tolerated downward wobble, in cycles per
// fetch, between consecutive footprints — rounding headroom only. The
// probes below hold the fetch count constant, so per-fetch overhead
// amortization is identical across the sweep and a drop beyond this
// bound means the timing model made a bigger footprint genuinely
// cheaper, which no hierarchy can do.
const hierMonotoneSlack = 3.0

// hierMonotoneFetches is the constant total chase length (surfaces x
// rounds) of the monotone sweep. Holding it fixed keeps every probe's
// slot count — and therefore the per-slot share of the ballast and
// clause-issue prologue — identical, isolating the working-set size as
// the only variable.
const hierMonotoneFetches = 1024

// CheckHierLatencyMonotone asserts that per-fetch latency is monotone
// non-decreasing in working-set size: a pointer-chase over kb+Δ KiB can
// never run meaningfully faster per fetch than an equally long chase
// over kb KiB on the same device. Footprints must be powers of two
// dividing hierMonotoneFetches, so rounds x surfaces stays constant. The
// probes run on spec as one sweep of s's runner.
func CheckHierLatencyMonotone(s *core.Suite, spec device.Spec, footprintsKB []int) error {
	probes := make([]hier.Probe, len(footprintsKB))
	for i, kb := range footprintsKB {
		if hierMonotoneFetches%kb != 0 {
			return fmt.Errorf("conformance: hier monotone: footprint %d KiB does not divide the fixed chase length %d", kb, hierMonotoneFetches)
		}
		probes[i] = hier.Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: kb, Rounds: hierMonotoneFetches / kb, Batch: 1}
	}
	ls, err := hier.SuiteMeasurer(s, spec)(probes)
	if err != nil {
		return fmt.Errorf("conformance: hier monotone: %s at %v KiB: %v", spec.Arch, footprintsKB, err)
	}
	prev, prevKB := 0.0, 0
	for i, kb := range footprintsKB {
		lam := ls[i]
		if i > 0 && lam < prev-hierMonotoneSlack {
			return fmt.Errorf("conformance: hier monotone: %s: %d KiB ran at %.2f cycles/fetch, below %.2f at %d KiB",
				spec.Arch, kb, lam, prev, prevKB)
		}
		prev, prevKB = lam, kb
	}
	return nil
}

// CheckInferOrderInvariance asserts the recovered cache model is
// invariant under permutation of the inference's stride-probe schedule:
// shuffling the candidate-associativity order (the one part of the
// sweep whose order is configurable) must change nothing, because each
// probe's result depends only on the device, never on probe history.
// The probes run on spec through s's sweep runner.
func CheckInferOrderInvariance(s *core.Suite, spec device.Spec, seed int64) error {
	m := hier.SuiteMeasurer(s, spec)
	base, err := hier.Infer(m, hier.Config{})
	if err != nil {
		return fmt.Errorf("conformance: hier order: %s base: %v", spec.Arch, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 4; trial++ {
		cands := []int{2, 4, 8, 16}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		inf, err := hier.Infer(m, hier.Config{WayCandidates: cands})
		if err != nil {
			return fmt.Errorf("conformance: hier order: %s candidates %v: %v", spec.Arch, cands, err)
		}
		if inf != base {
			return fmt.Errorf("conformance: hier order: %s: candidates %v inferred %+v, default order %+v",
				spec.Arch, cands, inf, base)
		}
	}
	return nil
}
