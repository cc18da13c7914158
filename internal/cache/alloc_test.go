package cache

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// Replay's allocations are a fixed, small setup cost — the cursor, the
// two cache models, the open-row tracker and the precomputed run table —
// independent of how many fetches the replay streams. The budget pins
// that: a regression that allocates per access or per wavefront blows
// straight through it.
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
	if _, err := Replay(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Replay(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The cursor, 3 Cache structs, 3 tag arrays and the run table.
	if allocs > 8 {
		t.Errorf("Replay allocates %.1f objects/op, want <= 8 (fixed setup only)", allocs)
	}
}

// The replay-cursor fast path — clone a stored prefix snapshot, advance
// it by one input — is what every warm sweep point pays. Its allocations
// are the clone's fixed state copies (cursor struct, three Cache structs,
// three tag arrays); the Advance itself must allocate nothing, however
// many fetches the delta streams.
func TestCursorAdvanceAllocs(t *testing.T) {
	cfg := TraceConfig{
		Spec:          device.Lookup(device.RV770),
		Order:         raster.PixelOrder(),
		W:             256,
		H:             256,
		ElemBytes:     4,
		ResidentWaves: 16,
	}
	cur, err := NewCursor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Advance(8); err != nil {
		t.Fatal(err)
	}

	n := 8
	allocs := testing.AllocsPerRun(10, func() {
		n++
		clone := cur.Clone()
		if err := clone.Advance(n); err != nil {
			t.Fatal(err)
		}
		if clone.Stats().FetchExecs == 0 {
			t.Fatal("advanced clone recorded no fetches")
		}
	})
	if allocs > 7 {
		t.Errorf("clone+advance allocates %.1f objects/op, want <= 7 (clone state only)", allocs)
	}

	// Advance alone, with no clone, is allocation-free.
	allocs = testing.AllocsPerRun(10, func() {
		n++
		if err := cur.Advance(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Advance allocates %.1f objects/op, want 0", allocs)
	}
}
