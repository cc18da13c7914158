package conformance

import (
	"math/rand"
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// TestCycleMonotonicity: more serialized ALU work never simulates faster,
// across random kernels and every device.
func TestCycleMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 25; i++ {
		k := RandomKernel(rng)
		spec := SpecFor(k, uint8(i))
		if err := CheckCycleMonotonic(k, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDomainLinearity: doubling the domain doubles overhead-corrected
// cycles within tolerance, across random kernels and every device.
func TestDomainLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 15; i++ {
		k := RandomKernel(rng)
		spec := SpecFor(k, uint8(i))
		if err := CheckDomainLinearity(k, spec, 1.8, 2.2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtendDependentALUShape pins what the transform claims: n more ALU
// instructions, identical fetch/store counts, still valid.
func TestExtendDependentALUShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		k := RandomKernel(rng)
		for _, n := range []int{0, 1, 7, 100} {
			ext := ExtendDependentALU(k, n)
			if err := ext.Validate(); err != nil {
				t.Fatalf("extension by %d invalid: %v\n%s", n, err, il.Assemble(ext))
			}
			c0, c1 := k.Counts(), ext.Counts()
			if c1.ALU != c0.ALU+n || c1.Fetch != c0.Fetch || c1.Store != c0.Store {
				t.Fatalf("extension by %d changed counts %+v -> %+v", n, c0, c1)
			}
		}
	}
}

// replayConfigs sweeps representative trace geometries: every device,
// both element sizes, all three domain walks, several input counts and
// residency levels, including clause-group boundaries (8 fetches per TEX
// clause) and padding-thread domains that do not tile evenly.
func replayConfigs() []cache.TraceConfig {
	var cfgs []cache.TraceConfig
	orders := []raster.Order{raster.PixelOrder(), raster.Naive64x1(), raster.Block4x16()}
	for _, spec := range device.All() {
		for _, elem := range []int{4, 16} {
			for oi, ord := range orders {
				cfgs = append(cfgs, cache.TraceConfig{
					Spec: spec, Order: ord,
					W: 128, H: 128, ElemBytes: elem,
					NumInputs:     1 + 3*oi, // 1, 4, 7: straddles nothing, then the 8-fetch clause edge below
					ResidentWaves: 4 + 4*oi,
				})
			}
		}
	}
	// Clause-boundary and degenerate shapes.
	rv770 := device.Lookup(device.RV770)
	cfgs = append(cfgs,
		cache.TraceConfig{Spec: rv770, Order: raster.PixelOrder(), W: 100, H: 52, ElemBytes: 4, NumInputs: 8, ResidentWaves: 3},
		cache.TraceConfig{Spec: rv770, Order: raster.PixelOrder(), W: 64, H: 64, ElemBytes: 16, NumInputs: 9, ResidentWaves: 16},
		cache.TraceConfig{Spec: rv770, Order: raster.Naive64x1(), W: 64, H: 3, ElemBytes: 4, NumInputs: 17, ResidentWaves: 1},
	)
	return cfgs
}

// TestReplayConservation: the replay's counting identities hold on every
// geometry in the sweep.
func TestReplayConservation(t *testing.T) {
	for _, cfg := range replayConfigs() {
		if err := CheckReplayConservation(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayMatchesLanes: Replay's statistics equal the lane-by-lane
// oracle's on every sweep geometry, on linear layouts, and on packed
// FetchRes arenas both line-aligned (the run path) and not (the per-lane
// fallback), as well as on a 12-byte element that straddles lines.
func TestReplayMatchesLanes(t *testing.T) {
	rv770, rv870 := device.Lookup(device.RV770), device.Lookup(device.RV870)
	sched := []int{0, 1, 2, 0, 3, 1, 0, 2, 3, 4, 4, 1}
	cfgs := append(replayConfigs(),
		cache.TraceConfig{Spec: device.Lookup(device.RV670), Order: raster.Block4x16(), W: 200, H: 120, ElemBytes: 4, NumInputs: 9, ResidentWaves: 12, LinearLayout: true},
		cache.TraceConfig{Spec: rv770, Order: raster.PixelOrder(), W: 64, H: 64, ElemBytes: 4, NumInputs: len(sched), ResidentWaves: 8, FetchRes: sched},
		cache.TraceConfig{Spec: rv870, Order: raster.PixelOrder(), W: 40, H: 24, ElemBytes: 1, NumInputs: len(sched), ResidentWaves: 6, FetchRes: sched},
		cache.TraceConfig{Spec: rv870, Order: raster.PixelOrder(), W: 5, H: 3, ElemBytes: 1, NumInputs: len(sched), ResidentWaves: 1, FetchRes: sched},
		cache.TraceConfig{Spec: rv770, Order: raster.PixelOrder(), W: 96, H: 40, ElemBytes: 12, NumInputs: 7, ResidentWaves: 8, FirstWave: 5},
	)
	for _, cfg := range cfgs {
		if err := CheckReplayMatchesLanes(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayRotationInvariance: with the whole domain resident and
// compulsory misses only, hit counts do not depend on which wavefront
// leads the resident window.
func TestReplayRotationInvariance(t *testing.T) {
	rv770 := device.Lookup(device.RV770)
	for _, cfg := range []cache.TraceConfig{
		{Spec: rv770, Order: raster.PixelOrder(), W: 64, H: 64, ElemBytes: 4, NumInputs: 2},
		{Spec: rv770, Order: raster.Block4x16(), W: 64, H: 64, ElemBytes: 16, NumInputs: 3},
		{Spec: device.Lookup(device.RV870), Order: raster.Naive64x1(), W: 128, H: 32, ElemBytes: 4, NumInputs: 5},
	} {
		if err := CheckReplayRotationInvariance(cfg, []int{1, 7, 33}); err != nil {
			t.Fatal(err)
		}
	}
}
