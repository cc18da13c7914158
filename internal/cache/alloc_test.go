package cache

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// Replay's allocations are a fixed, small setup cost — the two cache
// models, the open-row tracker and the precomputed run table —
// independent of how many fetches the replay streams. The budget pins
// that: a regression that allocates per access or per wavefront blows
// straight through it, and so does one that allocates per input.
func TestReplayAllocs(t *testing.T) {
	cfg := TraceConfig{
		Spec:          device.Lookup(device.RV770),
		Order:         raster.PixelOrder(),
		W:             256,
		H:             256,
		ElemBytes:     4,
		NumInputs:     8,
		ResidentWaves: 16,
	}
	allocsAt := func(n int) float64 {
		c := cfg
		c.NumInputs = n
		if _, err := Replay(c); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Replay(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 3 Cache structs, 3 tag arrays and the run table.
	allocs := allocsAt(8)
	if allocs > 7 {
		t.Errorf("Replay allocates %.1f objects/op, want <= 7 (fixed setup only)", allocs)
	}
	if one, many := allocsAt(1), allocsAt(64); many > one {
		t.Errorf("Replay at 64 inputs allocates %.1f objects/op, more than %.1f at 1", many, one)
	}
}

// The full walk (a FetchRes arena here) streams every slot through the
// same caches and run table: replaying more slots must allocate nothing
// more, however many fetches they stream.
func TestCursorAdvanceAllocs(t *testing.T) {
	cfg := TraceConfig{
		Spec:          device.Lookup(device.RV770),
		Order:         raster.PixelOrder(),
		W:             256,
		H:             256,
		ElemBytes:     4,
		ResidentWaves: 16,
		FetchRes:      make([]int, 64),
	}
	for s := range cfg.FetchRes {
		cfg.FetchRes[s] = s % 5
	}
	allocsAt := func(n int) float64 {
		c := cfg
		c.NumInputs = n
		return testing.AllocsPerRun(10, func() {
			st, err := Replay(c)
			if err != nil {
				t.Fatal(err)
			}
			if st.FetchExecs != n*c.ResidentWaves {
				t.Fatalf("walk of %d slots recorded %d fetches", n, st.FetchExecs)
			}
		})
	}
	if one, many := allocsAt(1), allocsAt(64); many > one {
		t.Errorf("walking 64 slots allocates %.1f objects/op, more than %.1f for 1", many, one)
	}
}
