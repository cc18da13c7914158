package pipeline

import (
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

func snapshotTraceConfigs(t *testing.T) []cache.TraceConfig {
	t.Helper()
	block, err := raster.ComputeOrder(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []cache.TraceConfig{
		{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 256, H: 256, ElemBytes: 4, ResidentWaves: 16},
		{Spec: device.Lookup(device.RV870), Order: block, W: 192, H: 128, ElemBytes: 16, ResidentWaves: 8, LinearLayout: true},
	}
}

// TestReplayIncrementalMatchesScratch is the prefix-snapshot identity at
// the pipeline layer: a dense ascending input-count sweep served through
// Pipeline.Replay — where every point after the first resumes the
// family's snapshot — must be bit-identical to a cold cache.Replay of
// each point, and the snapshot store must actually have served hits.
func TestReplayIncrementalMatchesScratch(t *testing.T) {
	p := New(Options{})
	for _, base := range snapshotTraceConfigs(t) {
		for n := 1; n <= 24; n++ {
			tc := base
			tc.NumInputs = n
			got, err := p.Replay(tc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cache.Replay(tc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v at %d inputs: incremental %+v != scratch %+v", base.Order, n, got, want)
			}
		}
	}

	snap := p.Metrics().Snapshot()
	hits := snap.Get("pipeline.replay-prefix.hits")
	// Two families, 24 ascending points each: every point after a
	// family's first resumes its snapshot.
	if want := int64(2 * 23); hits != want {
		t.Errorf("prefix snapshot hits = %d, want %d", hits, want)
	}
	if reused := snap.Get("pipeline.replay-prefix.inputs_reused"); reused == 0 {
		t.Error("prefix snapshots reused no inputs across an ascending sweep")
	}
	// Each point advanced exactly its one-input delta except the first.
	if played := snap.Get("pipeline.replay-prefix.inputs_replayed"); played != 2*24 {
		t.Errorf("inputs_replayed = %d, want %d", played, 2*24)
	}
	if entries := snap.Get("pipeline.replay-family.entries"); entries != 2 {
		t.Errorf("prefix snapshot store holds %d families, want 2", entries)
	}
}

// TestReplayIncrementalDescending: a snapshot deeper than the requested
// point cannot rewind, so a descending sweep must fall back to cold
// cursors — and still be bit-identical.
func TestReplayIncrementalDescending(t *testing.T) {
	p := New(Options{})
	base := snapshotTraceConfigs(t)[0]
	for n := 12; n >= 1; n-- {
		tc := base
		tc.NumInputs = n
		got, err := p.Replay(tc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cache.Replay(tc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("descending at %d inputs: incremental %+v != scratch %+v", n, got, want)
		}
	}
	snap := p.Metrics().Snapshot()
	if hits := snap.Get("pipeline.replay-prefix.hits"); hits != 0 {
		t.Errorf("descending sweep recorded %d prefix hits, want 0 (cursors cannot rewind)", hits)
	}
	if misses := snap.Get("pipeline.replay-prefix.misses"); misses != 12 {
		t.Errorf("descending sweep recorded %d prefix misses, want 12", misses)
	}
}

// TestReplaySnapshotEviction: the store is LRU-bounded per prefix
// family; overflowing the bound evicts the least recently used family
// without affecting correctness.
func TestReplaySnapshotEviction(t *testing.T) {
	p := New(Options{})
	p.snapshots.max = 1
	cfgs := snapshotTraceConfigs(t)
	for n := 1; n <= 4; n++ {
		for _, base := range cfgs {
			tc := base
			tc.NumInputs = n
			got, err := p.Replay(tc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cache.Replay(tc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v at %d inputs under eviction pressure: %+v != %+v", base.Order, n, got, want)
			}
		}
	}
	snap := p.Metrics().Snapshot()
	if ev := snap.Get("pipeline.replay-family.evictions"); ev == 0 {
		t.Error("alternating two families through a 1-entry store evicted nothing")
	}
	if entries := snap.Get("pipeline.replay-family.entries"); entries != 1 {
		t.Errorf("store holds %d entries, bound is 1", entries)
	}
}

// TestReplayIncrementalDisabled: -no-cache turns incremental replay off
// with the rest of the artifact caching; the disabled path is the
// one-shot cache.Replay and the snapshot store stays untouched. This is
// the lever the figure bit-identity tests pull to compare incremental
// against from-scratch end to end.
func TestReplayIncrementalDisabled(t *testing.T) {
	p := New(Options{Disabled: true})
	base := snapshotTraceConfigs(t)[0]
	for n := 1; n <= 6; n++ {
		tc := base
		tc.NumInputs = n
		got, err := p.Replay(tc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cache.Replay(tc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("disabled pipeline at %d inputs: %+v != %+v", n, got, want)
		}
	}
	snap := p.Metrics().Snapshot()
	for _, name := range []string{"hits", "misses", "inputs_replayed"} {
		if v := snap.Get("pipeline.replay-prefix." + name); v != 0 {
			t.Errorf("disabled pipeline touched snapshot store: %s = %d", name, v)
		}
	}
}
