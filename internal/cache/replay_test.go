package cache

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// cursorCase is one replay shape and the inner-loop path laneRuns must
// pick for it.
type cursorCase struct {
	cfg TraceConfig
	// lineRuns: one L1 probe per run of lanes on one line. False is the
	// per-lane AccessRange fallback.
	lineRuns bool
}

// oddLineSpec is an RV770 with 96 B lines (a 12 KiB 4-way L1, a 96 KiB
// 16-way L2): a line that does not divide 2^32, so identity-scheduled
// surfaces do not share one line partition and replay by the full walk.
func oddLineSpec() device.Spec {
	s := device.Lookup(device.RV770)
	s.L1LineBytes, s.L1CacheBytes, s.L1Ways = 96, 12<<10, 4
	s.L2CacheBytes, s.L2Ways = 96<<10, 16
	return s
}

// cursorConfigs covers the replay shapes the suite actually sweeps:
// pixel tiles and both compute blocks, float and float4, tiled and
// linear layouts, pow2 and the padding-heavy odd domain, and a packed
// FetchRes arena. The packed schedule revisits surfaces the way the
// hierarchy-dissection chase kernels do; each 64x64 float surface is
// 16KB, the RV770's L1 size, so its surfaces also conflict in L1 sets.
// Every suite shape takes the run path, so the last three cases are the
// fallback's only coverage: a packed arena whose surfaces are not
// line-aligned (40x24 one-byte elements pad to 960 B, 7.5 of the RV870's
// 128 B lines), a 12-byte element that does not divide the line, and a
// 96 B line, which also keeps identity-scheduled replays on the full
// walk.
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
		{TraceConfig{Spec: oddLineSpec(), Order: raster.PixelOrder(), W: 256, H: 256, ElemBytes: 4, ResidentWaves: 16}, false},
	}
}

// TestCursorPath pins which inner loop each shape replays through: the
// run path wherever it is exact, the per-lane loop everywhere else.
func TestCursorPath(t *testing.T) {
	for _, c := range cursorConfigs(t) {
		l1 := mustNew(t, c.cfg.Spec.L1CacheBytes, c.cfg.Spec.L1LineBytes, c.cfg.Spec.L1Ways)
		_, lineRuns, _, err := laneRuns(c.cfg, l1)
		if err != nil {
			t.Fatal(err)
		}
		if lineRuns != c.lineRuns {
			t.Errorf("%v %dx%d %dB (FetchRes %v): lineRuns = %v, want %v",
				c.cfg.Order, c.cfg.W, c.cfg.H, c.cfg.ElemBytes, c.cfg.FetchRes != nil, lineRuns, c.lineRuns)
		}
	}
}

// TestNewCursorRejectsInvalidGeometry: a negative residency once
// panicked in makeslice (ResidentWaves) or silently replayed every lane
// as padding (FirstWave), and an empty domain divided by zero in the
// raster walk. A surface past 4 GiB would overlap the next identity
// surface and overflow a run's uint32 offset. Each must be an error,
// never a panic or wrong stats — from Replay, which walks one surface of
// this identity-scheduled config, and from the full walk alike.
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
		if st, err := walk(cfg); err == nil {
			t.Errorf("%s: full walk = %+v, want an error", tc.name, st)
		}
	}
	if _, err := Replay(ok); err != nil {
		t.Fatalf("unedited config: %v", err)
	}
}

// TestCursorMatchesReplay is the one-surface identity at its root: at
// every input count from 0 to 9, Replay's statistics must be
// bit-identical to the full walk of every slot. Identity-scheduled
// shapes with a line that divides 2^32 take the one-surface path, and
// the rest must not: on a FetchRes arena and on a 96 B line, scaling one
// surface would be wrong, which the test shows too.
func TestCursorMatchesReplay(t *testing.T) {
	for _, c := range cursorConfigs(t) {
		cfg := c.cfg
		scalable := cfg.FetchRes == nil && cfg.Spec.L1LineBytes != 96
		inexact := false
		for n := 0; n <= 9; n++ {
			cfg.NumInputs = n
			got, err := Replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := walk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v at %d inputs: Replay %+v != full walk %+v", cfg.Order, n, got, want)
			}
			one, copies := OneSurface(cfg)
			if split := copies > 1; split != (scalable && n > 1) {
				t.Fatalf("%v at %d inputs (FetchRes %v, %d B lines): OneSurface copies = %d",
					cfg.Order, n, cfg.FetchRes != nil, cfg.Spec.L1LineBytes, copies)
			}
			if copies > 1 && one.NumInputs != 1 {
				t.Fatalf("OneSurface kept %d inputs", one.NumInputs)
			}
			if n > 1 && !scalable {
				one.NumInputs = 1
				st, err := walk(one)
				if err != nil {
					t.Fatal(err)
				}
				inexact = inexact || st.Scale(n) != want
			}
		}
		if !scalable && !inexact {
			t.Errorf("%v (FetchRes %v, %d B lines): scaling one surface matched the full walk at every count; the shape does not show why it takes the full walk",
				cfg.Order, cfg.FetchRes != nil, cfg.Spec.L1LineBytes)
		}
	}
}
