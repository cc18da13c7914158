package cache

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// cursorConfigs covers the replay shapes the suite actually sweeps:
// pixel tiles and both compute blocks, float and float4, tiled and
// linear layouts, pow2 and the padding-heavy odd domain, and a packed
// FetchRes arena. The packed schedule revisits surfaces the way the
// hierarchy-dissection chase kernels do; each 64x64 float surface is
// 16KB, the RV770's L1 size, so its surfaces also conflict in L1 sets.
func cursorConfigs(t *testing.T) []TraceConfig {
	t.Helper()
	block, err := raster.ComputeOrder(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []TraceConfig{
		{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 256, H: 256, ElemBytes: 4, ResidentWaves: 16},
		{Spec: device.Lookup(device.RV870), Order: raster.Naive64x1(), W: 512, H: 128, ElemBytes: 16, ResidentWaves: 8},
		{Spec: device.Lookup(device.RV670), Order: block, W: 200, H: 120, ElemBytes: 4, ResidentWaves: 12, LinearLayout: true},
		{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 130, H: 70, ElemBytes: 16, ResidentWaves: 4, FirstWave: 7},
		{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 64, H: 64, ElemBytes: 4, ResidentWaves: 8,
			FetchRes: []int{0, 1, 2, 0, 3, 1, 0, 2, 3}},
	}
}

// TestCursorMatchesReplay is the incremental-replay identity at its
// root: advancing a cursor one input at a time through N inputs must
// produce, at every intermediate count, statistics bit-identical to a
// cold one-shot Replay of that count. This is what entitles the
// pipeline's prefix-snapshot store to serve sweep point N+1 from point
// N's state.
func TestCursorMatchesReplay(t *testing.T) {
	for _, cfg := range cursorConfigs(t) {
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
	cfg := cursorConfigs(t)[0]
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
	cur, err := NewCursor(cursorConfigs(t)[0])
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
