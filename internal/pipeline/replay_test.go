package pipeline

import (
	"sync"
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

func replayFamilies(t *testing.T) []cache.TraceConfig {
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

// disabledReplays serves every input count from 1 to max through a
// Disabled pipeline: the reference each memoized point must equal.
func disabledReplays(t *testing.T, base cache.TraceConfig, max int) []cache.TraceStats {
	t.Helper()
	p := New(Options{Disabled: true})
	want := make([]cache.TraceStats, max+1)
	for n := 1; n <= max; n++ {
		tc := base
		tc.NumInputs = n
		var err error
		if want[n], err = p.Replay(tc); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestReplayIncrementalMatchesScratch: an identity-scheduled family
// swept over 1..24 inputs in ascending order is stored once — one
// pipeline.replay.misses for all 24 points — and every point equals the
// Disabled pipeline's statistics.
func TestReplayIncrementalMatchesScratch(t *testing.T) {
	const maxInputs = 24
	ascending := make([]int, 0, maxInputs)
	for n := 1; n <= maxInputs; n++ {
		ascending = append(ascending, n)
	}
	for _, base := range replayFamilies(t) {
		checkSweepSharesOneEntry(t, base, ascending)
	}
}

// TestReplayIncrementalDescending: a descending sweep, which starts at
// the deepest point, is served by the same single entry — the replay
// holds every input count at once, so no point needs a rewind — and
// still equals the Disabled pipeline at every point.
func TestReplayIncrementalDescending(t *testing.T) {
	const maxInputs = 12
	descending := make([]int, 0, maxInputs)
	for n := maxInputs; n >= 1; n-- {
		descending = append(descending, n)
	}
	for _, base := range replayFamilies(t) {
		checkSweepSharesOneEntry(t, base, descending)
	}
}

// checkSweepSharesOneEntry replays base at each input count of sweep
// through a fresh pipeline, requires each result to equal the Disabled
// pipeline's, and requires one replay miss with every other point a hit.
func checkSweepSharesOneEntry(t *testing.T, base cache.TraceConfig, sweep []int) {
	t.Helper()
	max := 0
	for _, n := range sweep {
		if n > max {
			max = n
		}
	}
	want := disabledReplays(t, base, max)
	p := New(Options{})
	for _, n := range sweep {
		tc := base
		tc.NumInputs = n
		got, err := p.Replay(tc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[n] {
			t.Fatalf("%v at %d inputs: %+v != Disabled pipeline's %+v", base.Order, n, got, want[n])
		}
	}
	snap := p.Metrics().Snapshot()
	if misses := snap.Get("pipeline.replay.misses"); misses != 1 {
		t.Errorf("%v: a %d-point input sweep cost %d replay misses, want 1", base.Order, len(sweep), misses)
	}
	if hits := snap.Get("pipeline.replay.hits"); hits != int64(len(sweep)-1) {
		t.Errorf("%v: %d replay hits, want %d", base.Order, hits, len(sweep)-1)
	}
}

// TestReplayConcurrentInputCounts replays one family from many
// goroutines at once, half sweeping the input count up and half down.
// Run under -race this doubles as a data race check. Every result must
// equal the Disabled pipeline's, the family computes once, and every
// other request is a hit or a coalesced wait.
func TestReplayConcurrentInputCounts(t *testing.T) {
	const (
		goroutines = 6
		maxInputs  = 10
	)
	base := replayFamilies(t)[0]
	want := disabledReplays(t, base, maxInputs)

	p := New(Options{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 1; i <= maxInputs; i++ {
				n := i
				if g%2 == 1 {
					n = maxInputs + 1 - i
				}
				tc := base
				tc.NumInputs = n
				got, err := p.Replay(tc)
				if err != nil {
					t.Errorf("replay to %d inputs: %v", n, err)
					return
				}
				if got != want[n] {
					t.Errorf("goroutine %d at %d inputs: %+v != Disabled pipeline's %+v", g, n, got, want[n])
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	snap := p.Metrics().Snapshot()
	misses := snap.Get("pipeline.replay.misses")
	served := snap.Get("pipeline.replay.hits") + snap.Get("pipeline.replay.coalesced")
	if misses != 1 || misses+served != goroutines*maxInputs {
		t.Errorf("misses %d, hits+coalesced %d: want 1 and %d", misses, served, goroutines*maxInputs-1)
	}
}
