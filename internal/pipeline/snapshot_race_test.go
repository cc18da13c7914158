package pipeline

import (
	"sync"
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// TestPrefixSlotConcurrentReplays replays one trace family from many
// goroutines at once, half of them sweeping the input count up and half
// down, so clones of the family's cursor race banking of deeper ones.
// Run under -race (CI does) this doubles as a data race check. Every
// result must equal a cold cache.Replay, and the replay-prefix counters
// obey two conservation laws at any interleaving:
//
//	hits + misses                   == requests
//	inputs_reused + inputs_replayed == Σ NumInputs
func TestPrefixSlotConcurrentReplays(t *testing.T) {
	const (
		goroutines = 6
		rounds     = 3
		maxInputs  = 10
	)
	base := cache.TraceConfig{Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
		W: 128, H: 128, ElemBytes: 4, ResidentWaves: 8}
	want := make([]cache.TraceStats, maxInputs+1)
	for n := range want {
		tc := base
		tc.NumInputs = n
		var err error
		if want[n], err = cache.Replay(tc); err != nil {
			t.Fatal(err)
		}
	}

	p := New(Options{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for i := 1; i <= maxInputs; i++ {
					n := i
					if g%2 == 1 {
						n = maxInputs + 1 - i
					}
					tc := base
					tc.NumInputs = n
					got, err := p.replayIncremental(tc)
					if err != nil {
						t.Errorf("replay to %d inputs: %v", n, err)
						return
					}
					if got != want[n] {
						t.Errorf("goroutine %d at %d inputs: %+v != cold %+v", g, n, got, want[n])
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	const requests = goroutines * rounds * maxInputs
	const inputs = goroutines * rounds * maxInputs * (maxInputs + 1) / 2
	hits, misses := p.prefix.hits.Load(), p.prefix.misses.Load()
	if hits+misses != requests {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d requests", hits, misses, hits+misses, requests)
	}
	reused, replayed := p.prefix.inputsReused.Load(), p.prefix.inputsReplayed.Load()
	if reused+replayed != inputs {
		t.Errorf("inputs_reused(%d)+inputs_replayed(%d) = %d, want Σ NumInputs %d",
			reused, replayed, reused+replayed, inputs)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("hits %d, misses %d: want both resumed and cold replays", hits, misses)
	}
	if n := p.snapshots.len(); n != 1 {
		t.Errorf("one family occupies %d slots", n)
	}
}
