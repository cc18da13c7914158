package ilc_test

import (
	"math/rand"
	"testing"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/conformance"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
)

// compileAllocsCeiling is the measured allocation count of one
// CompileWith of a chase probe. A compile allocates per array, never per
// element, so the count is the same for every kernel length.
const compileAllocsCeiling = 22

// TestCompileAllocs bounds CompileWith's allocations: a float and a
// float4 chase probe compile with the same count at 1 and at 16 rounds
// (282 and 522 instructions), so the count does not grow with kernel
// length, and that count stays at or below the ceiling.
func TestCompileAllocs(t *testing.T) {
	spec := device.Lookup(device.RV770)
	for _, p := range []hier.Probe{
		{Type: il.Float, SurfaceBytes: 256, Surfaces: 8, Batch: 1},
		{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 8, Batch: 1},
	} {
		var counts [2]float64
		for i, rounds := range []int{1, 16} {
			p.Rounds = rounds
			k, err := p.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = testing.AllocsPerRun(20, func() {
				if _, err := ilc.CompileWith(k, spec, ilc.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v rounds=%d (%d instructions): %.0f allocs", p.Type, rounds, len(k.Code), counts[i])
		}
		if counts[0] != counts[1] {
			t.Errorf("%v: %.0f allocs at 1 round, %.0f at 16: the count grows with kernel length", p.Type, counts[0], counts[1])
		}
		if counts[1] > compileAllocsCeiling {
			t.Errorf("%v: %.0f allocs per compile, want <= %d", p.Type, counts[1], compileAllocsCeiling)
		}
	}
}

// TestProgramSlicesCapped checks that every slab-backed slice of a
// compiled program is capped at its length, so an append on one clause
// or bundle of a shared, cached program copies instead of overwriting
// its neighbour's elements.
func TestProgramSlicesCapped(t *testing.T) {
	p := hier.Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 8, Rounds: 2, Batch: 4}
	k, err := p.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilc.Compile(k, device.Lookup(device.RV770))
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range prog.Clauses {
		if cap(c.Fetches) != len(c.Fetches) || cap(c.Bundles) != len(c.Bundles) || cap(c.Exports) != len(c.Exports) {
			t.Errorf("clause %d: uncapped slice (fetches %d/%d, bundles %d/%d, exports %d/%d)", ci,
				len(c.Fetches), cap(c.Fetches), len(c.Bundles), cap(c.Bundles), len(c.Exports), cap(c.Exports))
		}
		for bi, b := range c.Bundles {
			if cap(b.Ops) != len(b.Ops) {
				t.Errorf("clause %d bundle %d: %d ops with capacity %d", ci, bi, len(b.Ops), cap(b.Ops))
			}
		}
	}
}

// ablations is every combination of ilc.Options.
var ablations = []ilc.Options{
	{},
	{NoPVForwarding: true},
	{NoClauseTemps: true},
	{NoPVForwarding: true, NoClauseTemps: true},
}

// checkGPRs asserts the heap scan numbers k's registers exactly as the
// reference scan does, under every ablation.
func checkGPRs(t *testing.T, k *il.Kernel, spec device.Spec) {
	t.Helper()
	for _, opts := range ablations {
		if err := ilc.CheckGPRsMatchReference(k, spec, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGPRAllocationMatchesReference guards the register hand-out order,
// not just the goldens' subset of it: the heap scan and the plain
// reference scan must place every value in the same register and report
// the same count on every registry figure's kernels, on generated
// conformance kernels and on the RV770 dissection's probe schedule.
func TestGPRAllocationMatchesReference(t *testing.T) {
	t.Run("registry", func(t *testing.T) {
		specs, err := campaign.Specs(core.NewSuite(), campaign.FigureNames())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			for _, p := range s.Figure.Points {
				checkGPRs(t, p.K.Kernel, device.Lookup(p.Card.Arch))
			}
		}
	})
	t.Run("conformance", func(t *testing.T) {
		for seed := int64(0); seed < 500; seed++ {
			k := conformance.RandomKernel(rand.New(rand.NewSource(seed)))
			checkGPRs(t, k, conformance.SpecFor(k, uint8(seed)))
		}
	})
	t.Run("hier", func(t *testing.T) {
		spec := device.Lookup(device.RV770)
		measure := hier.SimMeasurer(spec, 100)
		types := map[il.DataType]int{}
		record := func(p hier.Probe) (float64, error) {
			k, err := p.Kernel()
			if err != nil {
				return 0, err
			}
			checkGPRs(t, k, spec)
			types[p.Type]++
			return measure(p)
		}
		if _, err := hier.Infer(record, hier.Config{}); err != nil {
			t.Fatal(err)
		}
		if types[il.Float] == 0 || types[il.Float4] == 0 {
			t.Fatalf("probe schedule covers %v, want both float and float4", types)
		}
	})
}
