package conformance

import (
	"fmt"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
)

// hierSuite is the suite the hierarchy checks measure through. The
// simulation is deterministic, so the per-launch cycle counts the checks
// compare are identical at any iteration count; 100 keeps them cheap.
func hierSuite() *core.Suite {
	s := core.NewSuite()
	s.Iterations = 100
	return s
}

// TestHierLatencyMonotone: per-fetch latency never meaningfully drops as
// the working set grows, on every built-in device and a handful of
// synthetic geometries.
func TestHierLatencyMonotone(t *testing.T) {
	s := hierSuite()
	footprints := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	for _, spec := range device.All() {
		spec := spec
		t.Run(spec.Arch.String(), func(t *testing.T) {
			t.Parallel()
			if err := CheckHierLatencyMonotone(s, spec, footprints); err != nil {
				t.Fatal(err)
			}
		})
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("synth%02d", seed), func(t *testing.T) {
			t.Parallel()
			if err := CheckHierLatencyMonotone(s, hier.SynthSpec(seed), footprints); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestInferOrderInvariance: the recovered cache model does not depend on
// the order the stride probes run in.
func TestInferOrderInvariance(t *testing.T) {
	s := hierSuite()
	for _, spec := range device.All() {
		spec := spec
		t.Run(spec.Arch.String(), func(t *testing.T) {
			t.Parallel()
			if err := CheckInferOrderInvariance(s, spec, int64(spec.Arch)+31); err != nil {
				t.Fatal(err)
			}
		})
	}
}
