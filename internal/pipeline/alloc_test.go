package pipeline

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/ilc"
)

// A compile-store hit is the common case of every sweep point after the
// first: it must do no serialization and essentially no allocation. The
// budget admits only the memoization closure itself.
func TestCompileHitAllocs(t *testing.T) {
	p := New(Options{})
	spec := device.Lookup(device.RV770)
	k, err := p.Generate(GenALUFetch, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(k, spec, ilc.Options{}); err != nil {
		t.Fatal(err) // populate the store; everything after this is a hit
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Compile(k, spec, ilc.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Compile hit allocates %.1f objects/op, want <= 2", allocs)
	}
}

// A warm launch is a lookup: a simulate-store hit, or on a restart a hit
// in the persistent tier's index, with the kernel's hash memoized in its
// sealed artifact. Neither may allocate.
func TestWarmSimulateLookupAllocs(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Options{PersistDir: dir})
	l := persistConfig(t, p1)
	if _, err := p1.runLaunch(l); err != nil {
		t.Fatal(err) // populate memory and disk; everything after this is a hit
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p1.runLaunch(l); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("simulate memory hit allocates %.1f objects/op, want 0", allocs)
	}

	p2 := New(Options{PersistDir: dir})
	l = persistConfig(t, p2)
	key := simulateKey{
		src: compileKeyFor(l.k, l.cfg.Spec, ilc.Options{}), spec: l.cfg.Spec,
		order: l.cfg.Order, w: l.cfg.W, h: l.cfg.H, iterations: l.cfg.Iterations,
	}
	if _, ok := p2.simulate.tierLoad(key); !ok {
		t.Fatal("restarted pipeline's index does not hold the launch")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		k := key
		k.src = compileKeyFor(l.k, l.cfg.Spec, ilc.Options{})
		if _, ok := p2.simulate.tierLoad(k); !ok {
			t.Fatal("index hit became a miss")
		}
	}); allocs > 0 {
		t.Errorf("persist index hit allocates %.1f objects/op, want 0", allocs)
	}
}
