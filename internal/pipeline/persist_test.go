package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// persistConfig builds a small real launch through a pipeline's own
// Generate stage.
func persistConfig(t *testing.T, p *Pipeline) testLaunch {
	t.Helper()
	k, err := p.Generate(GenALUFetch, kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return testLaunch{k: k, cfg: sim.Config{
		Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
		W: 64, H: 64, Iterations: 1,
	}}
}

func persistCount(t *testing.T, p *Pipeline, name string) int64 {
	t.Helper()
	return p.Metrics().Snapshot().Get("pipeline.persist." + name)
}

func TestPersistTierWriteThroughAndReload(t *testing.T) {
	dir := t.TempDir()

	// Cold pipeline: the first simulate computes and writes through.
	p1 := New(Options{PersistDir: dir})
	cfg1 := persistConfig(t, p1)
	res1, err := p1.runLaunch(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p1, "writes"); got != 1 {
		t.Fatalf("persist.writes = %d, want 1", got)
	}
	if got := persistCount(t, p1, "misses"); got != 1 {
		t.Fatalf("persist.misses = %d, want 1", got)
	}
	// A second simulate of the same config hits in MEMORY: the disk tier
	// is below the LRU, not in front of it.
	if _, err := p1.runLaunch(cfg1); err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p1, "hits"); got != 0 {
		t.Fatalf("persist.hits = %d after a memory hit, want 0", got)
	}

	// A fresh pipeline over the same dir — the daemon restart — serves
	// the result from disk, bit-identical, without simulating.
	p2 := New(Options{PersistDir: dir})
	cfg2 := persistConfig(t, p2)
	res2, err := p2.runLaunch(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatalf("disk-served result differs from computed:\n%+v\nvs\n%+v", res2, res1)
	}
	if got := persistCount(t, p2, "hits"); got != 1 {
		t.Fatalf("persist.hits = %d on restart, want 1", got)
	}
	if got := persistCount(t, p2, "writes"); got != 0 {
		t.Fatalf("persist.writes = %d on a tier hit, want 0 (no write-back of what is already on disk)", got)
	}
	if ns := p2.simulate.computeNS.Load() + p2.simBypassNS.Load(); ns != 0 {
		t.Fatalf("restart simulated for %dns; the tier should have served it", ns)
	}
}

func TestPersistTierCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Options{PersistDir: dir})
	cfg := persistConfig(t, p1)
	res1, err := p1.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the one persisted entry in place.
	var entries []string
	err = filepath.WalkDir(filepath.Join(dir, "simulate"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("persisted %d entries, want 1", len(entries))
	}
	if err := os.WriteFile(entries[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The restart recomputes (the corrupt entry must not wedge or lie),
	// counts the error, and heals the entry by writing through again.
	p2 := New(Options{PersistDir: dir})
	res2, err := p2.runLaunch(persistConfig(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatal("recomputed result differs")
	}
	if got := persistCount(t, p2, "errors"); got != 1 {
		t.Fatalf("persist.errors = %d, want 1", got)
	}
	if got := persistCount(t, p2, "writes"); got != 1 {
		t.Fatalf("persist.writes = %d, want 1 (corrupt entry healed)", got)
	}

	p3 := New(Options{PersistDir: dir})
	if _, err := p3.runLaunch(persistConfig(t, p3)); err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p3, "hits"); got != 1 {
		t.Fatalf("persist.hits = %d after heal, want 1", got)
	}
}

func TestPersistTierDisabledWithCache(t *testing.T) {
	dir := t.TempDir()
	p := New(Options{PersistDir: dir, Disabled: true})
	if _, err := p.runLaunch(persistConfig(t, p)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "simulate")); !os.IsNotExist(err) {
		t.Fatalf("-no-cache pipeline wrote persistent entries (stat err %v)", err)
	}
}

func TestPersistHitSkipsTraceAndReplay(t *testing.T) {
	// A disk hit serves the launch before compile, trace or replay run:
	// the key is built from the source, so a restart over a filled cache
	// dir pays for none of them.
	dir := t.TempDir()
	p1 := New(Options{PersistDir: dir})
	if _, err := p1.runLaunch(persistConfig(t, p1)); err != nil {
		t.Fatal(err)
	}
	if got := p1.Metrics().Snapshot().Get("pipeline.replay.misses"); got != 1 {
		t.Fatalf("cold launch replay.misses = %d, want 1 (a config with no replay makes this test vacuous)", got)
	}

	p2 := New(Options{PersistDir: dir})
	if _, err := p2.runLaunch(persistConfig(t, p2)); err != nil {
		t.Fatal(err)
	}
	snap := p2.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"pipeline.persist.hits":        1,
		"pipeline.compile.hits":        0,
		"pipeline.compile.misses":      0,
		"pipeline.trace.derivations":   0,
		"pipeline.replay.misses":       0,
		"pipeline.replay.hits":         0,
		"pipeline.simulate.bypassed":   0,
		"pipeline.simulate.compute_ns": 0,
	} {
		if got := snap.Get(name); got != want {
			t.Errorf("%s = %d on a disk hit, want %d", name, got, want)
		}
	}
}

// pinnedModelFingerprint is the timing model's fingerprint. A change to
// the compiler, cache model or simulator that moves a canary changes it
// and re-keys every persisted entry; re-pin it here, deliberately, with
// the value the failing test prints.
const pinnedModelFingerprint = "3e6bf93de56018a3c678c82d1f0a8884a7d2a0224de2c8b9b1ccb34997073e1b"

func TestModelFingerprintPinned(t *testing.T) {
	if got := modelFingerprint(); got != pinnedModelFingerprint {
		t.Fatalf("model fingerprint = %s, pinned %s: the timing model changed and every persisted result will miss once; re-pin if that is intended", got, pinnedModelFingerprint)
	}
}

func TestPersistKeyCarriesModelFingerprint(t *testing.T) {
	// Two binaries with different models never share an entry, however
	// equal the launch.
	tier := newPersistTier(t.TempDir(), obs.NewRegistry())
	other := *tier
	other.model = "another model"
	l := persistConfig(t, New(Options{}))
	k := simulateKey{src: compileKeyFor(l.k, l.cfg.Spec, ilc.Options{}), spec: l.cfg.Spec, order: l.cfg.Order, w: l.cfg.W, h: l.cfg.H}
	if tier.pathFor(k) == other.pathFor(k) {
		t.Error("entries of different models share a path")
	}
}

func TestPersistTierKeySeparatesConfigs(t *testing.T) {
	// Each case is a pair of configs the tier must keep apart: with one
	// persisted, a fresh pipeline simulating the other misses and
	// computes, in either order. Resume runs through the tier, so these
	// are what stop a rerun from splicing stale timings into a figure.
	withParams := func(mut func(*kerngen.Params)) func(*testing.T, *Pipeline) testLaunch {
		return func(t *testing.T, p *Pipeline) testLaunch {
			params := kerngen.Params{
				Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
				ALUFetchRatio: 1.0, Name: "same_name",
			}
			mut(&params)
			k, err := p.Generate(GenALUFetch, params)
			if err != nil {
				t.Fatal(err)
			}
			if k.Name != "same_name" {
				t.Fatalf("kernel named %q, want the pinned name", k.Name)
			}
			return testLaunch{k: k, cfg: sim.Config{
				Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
				W: 64, H: 64, Iterations: 1,
			}}
		}
	}
	base := withParams(func(*kerngen.Params) {})
	with := func(mut func(*sim.Config)) func(*testing.T, *Pipeline) testLaunch {
		return func(t *testing.T, p *Pipeline) testLaunch {
			l := base(t, p)
			mut(&l.cfg)
			return l
		}
	}
	cases := []struct {
		name string
		b    func(*testing.T, *Pipeline) testLaunch
	}{
		// Same kernel name, different IL body (8 inputs, not 4).
		{"same_name_different_body", withParams(func(p *kerngen.Params) { p.Inputs = 8 })},
		{"iterations", with(func(c *sim.Config) { c.Iterations = 2 })},
		// A -max-domain clamp against the full domain.
		{"clamped_domain", with(func(c *sim.Config) { c.W, c.H = 16, 16 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pair := [2]func(*testing.T, *Pipeline) testLaunch{base, c.b}
			for first := range pair {
				dir := t.TempDir()
				p1 := New(Options{PersistDir: dir})
				if _, err := p1.runLaunch(pair[first](t, p1)); err != nil {
					t.Fatal(err)
				}
				p2 := New(Options{PersistDir: dir})
				if _, err := p2.runLaunch(pair[1-first](t, p2)); err != nil {
					t.Fatal(err)
				}
				if got := persistCount(t, p2, "hits"); got != 0 {
					t.Errorf("config %d served config %d's entry (persist.hits = %d)", 1-first, first, got)
				}
				if got := persistCount(t, p2, "writes"); got != 1 {
					t.Errorf("persist.writes = %d, want 1 distinct entry", got)
				}
			}
		})
	}
}
