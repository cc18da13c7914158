package sim

import (
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// TestRunAllocsWithSuppliedTrace pins the simulate stage's allocation
// budget on the path every memoized sweep point pays: replay statistics
// served by the pipeline (cfg.Trace set), so Run is the event loop plus
// fixed setup. The step slice and the ready list are pooled; a
// regression that allocates per event or per clause blows the budget.
func TestRunAllocsWithSuppliedTrace(t *testing.T) {
	spec := device.Lookup(device.RV770)
	prog := buildChain(t, spec, 4, 16, il.Pixel, il.Float4, il.TextureSpace, il.TextureSpace, 1)
	cfg := Config{
		Spec:       spec,
		Prog:       prog,
		Order:      raster.PixelOrder(),
		W:          1024,
		H:          1024,
		Iterations: 1,
	}
	tc, ok := TraceConfigFor(cfg)
	if !ok {
		t.Fatal("test kernel has no texture trace")
	}
	st, err := cache.Replay(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &st

	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The DRAM model is per-run setup and the five pipes are stack
	// values; the event loop itself must recycle its pooled state.
	if allocs > 10 {
		t.Errorf("Run with supplied trace allocates %.1f objects/op, want <= 10", allocs)
	}
}
