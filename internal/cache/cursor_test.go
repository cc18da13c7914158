package cache

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// cursorCase is one replay shape and the inner-loop path NewCursor must
// pick for it.
type cursorCase struct {
	cfg TraceConfig
	// lineRuns: one L1 probe per run of lanes on one line. False is the
	// per-lane AccessRange fallback.
	lineRuns bool
}

// cursorConfigs covers the replay shapes the suite actually sweeps:
// pixel tiles and both compute blocks, float and float4, tiled and
// linear layouts, pow2 and the padding-heavy odd domain, and a packed
// FetchRes arena. The packed schedule revisits surfaces the way the
// hierarchy-dissection chase kernels do; each 64x64 float surface is
// 16KB, the RV770's L1 size, so its surfaces also conflict in L1 sets.
// Every suite shape takes the run path, so the last two cases are the
// fallback's only coverage: a packed arena whose surfaces are not
// line-aligned (40x24 one-byte elements pad to 960 B, 7.5 of the RV870's
// 128 B lines), and a 12-byte element that does not divide the line.
func cursorConfigs(t *testing.T) []cursorCase {
	t.Helper()
	block, err := raster.ComputeOrder(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []cursorCase{
		{TraceConfig{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 256, H: 256, ElemBytes: 4, ResidentWaves: 16}, true},
		{TraceConfig{Spec: device.Lookup(device.RV870), Order: raster.Naive64x1(), W: 512, H: 128, ElemBytes: 16, ResidentWaves: 8}, true},
		{TraceConfig{Spec: device.Lookup(device.RV670), Order: block, W: 200, H: 120, ElemBytes: 4, ResidentWaves: 12, LinearLayout: true}, true},
		{TraceConfig{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 130, H: 70, ElemBytes: 16, ResidentWaves: 4, FirstWave: 7}, true},
		{TraceConfig{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 64, H: 64, ElemBytes: 4, ResidentWaves: 8,
			FetchRes: []int{0, 1, 2, 0, 3, 1, 0, 2, 3}}, true},
		{TraceConfig{Spec: device.Lookup(device.RV870), Order: raster.PixelOrder(), W: 40, H: 24, ElemBytes: 1, ResidentWaves: 6,
			FetchRes: []int{0, 1, 2, 1, 3, 0, 4, 2, 1}}, false},
		{TraceConfig{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 96, H: 40, ElemBytes: 12, ResidentWaves: 8}, false},
	}
}

// TestCursorPath pins which inner loop each shape replays through: the
// run path wherever it is exact, the per-lane loop everywhere else.
func TestCursorPath(t *testing.T) {
	for _, c := range cursorConfigs(t) {
		cur, err := NewCursor(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cur.lineRuns != c.lineRuns {
			t.Errorf("%v %dx%d %dB (FetchRes %v): lineRuns = %v, want %v",
				c.cfg.Order, c.cfg.W, c.cfg.H, c.cfg.ElemBytes, c.cfg.FetchRes != nil, cur.lineRuns, c.lineRuns)
		}
	}
}

// TestNewCursorRejectsInvalidGeometry: a negative residency once
// panicked in makeslice (ResidentWaves) or silently replayed every lane
// as padding (FirstWave), and an empty domain divided by zero in the
// raster walk. A surface past 4 GiB would overlap the next identity
// surface and overflow a run's uint32 offset. Each must be an error,
// never a panic or wrong stats.
func TestNewCursorRejectsInvalidGeometry(t *testing.T) {
	ok := cursorConfigs(t)[0].cfg
	ok.NumInputs = 4
	for _, tc := range []struct {
		name string
		edit func(*TraceConfig)
	}{
		{"negative ResidentWaves", func(c *TraceConfig) { c.ResidentWaves = -1 }},
		{"negative FirstWave", func(c *TraceConfig) { c.FirstWave = -3 }},
		{"negative ElemBytes", func(c *TraceConfig) { c.ElemBytes = -4 }},
		{"zero width", func(c *TraceConfig) { c.W = 0 }},
		{"negative height", func(c *TraceConfig) { c.H = -8 }},
		{"surface beyond the 4 GiB window", func(c *TraceConfig) { c.W, c.H, c.ResidentWaves = 1<<20, 1<<20, 0 }},
	} {
		cfg := ok
		tc.edit(&cfg)
		if st, err := Replay(cfg); err == nil {
			t.Errorf("%s: Replay = %+v, want an error", tc.name, st)
		}
	}
	if _, err := Replay(ok); err != nil {
		t.Fatalf("unedited config: %v", err)
	}
}

// TestCursorMatchesReplay is the incremental-replay identity at its
// root: advancing a cursor one input at a time through N inputs must
// produce, at every intermediate count, statistics bit-identical to a
// cold one-shot Replay of that count. This is what entitles the
// pipeline's prefix-snapshot store to serve sweep point N+1 from point
// N's state.
func TestCursorMatchesReplay(t *testing.T) {
	for _, c := range cursorConfigs(t) {
		cfg := c.cfg
		cur, err := NewCursor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= 9; n++ {
			if err := cur.Advance(n); err != nil {
				t.Fatal(err)
			}
			cfg.NumInputs = n
			want, err := Replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := cur.Stats(); got != want {
				t.Fatalf("%v at %d inputs: incremental %+v != one-shot %+v", cfg.Order, n, got, want)
			}
		}
	}
}

// TestCursorCloneIsIndependent pins the snapshot contract: advancing a
// clone must not disturb the original, and two clones advanced to the
// same depth agree with each other and with a cold replay.
func TestCursorCloneIsIndependent(t *testing.T) {
	cfg := cursorConfigs(t)[0].cfg
	cur, err := NewCursor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Advance(3); err != nil {
		t.Fatal(err)
	}
	before := cur.Stats()

	a, b := cur.Clone(), cur.Clone()
	if err := a.Advance(8); err != nil {
		t.Fatal(err)
	}
	if got := cur.Stats(); got != before {
		t.Fatalf("advancing a clone mutated the original: %+v != %+v", got, before)
	}
	if err := b.Advance(8); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("sibling clones disagree: %+v != %+v", a.Stats(), b.Stats())
	}
	cfg.NumInputs = 8
	want, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != want {
		t.Fatalf("clone-resumed stats %+v != cold replay %+v", a.Stats(), want)
	}
}

// TestCursorRefusesRewind: the caches cannot forget a replayed prefix,
// so a rewind must be an explicit error, not silently wrong statistics.
func TestCursorRefusesRewind(t *testing.T) {
	cur, err := NewCursor(cursorConfigs(t)[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := cur.Advance(4); err == nil {
		t.Fatal("Advance(4) after Advance(5) succeeded, want rewind error")
	}
	if err := cur.Advance(5); err != nil {
		t.Fatalf("Advance to the current position must be a no-op, got %v", err)
	}
}
