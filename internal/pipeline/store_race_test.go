package pipeline

import (
	"sync"
	"testing"
	"time"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// TestStoreConcurrentEvictionConservation hammers a tiny store from many
// goroutines so singleflight waiters race LRU eviction: a key can be
// computed, evicted and recomputed while other goroutines are blocked on
// its in-flight call. Run under -race (CI does) this doubles as a data
// race check; the assertions below are the store's conservation laws,
// which must hold at any interleaving:
//
//	gets      == hits + misses + coalesced   (every get is exactly one)
//	residents == misses - evictions           (every miss inserts, every
//	                                           eviction removes)
func TestStoreConcurrentEvictionConservation(t *testing.T) {
	s := newStore[int, int]("race", obs.NewRegistry(), 4, false)

	const (
		goroutines = 16
		getsEach   = 300
		keySpace   = 12 // 3x the store's capacity: constant eviction pressure
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < getsEach; i++ {
				k := (g*7 + i) % keySpace
				v, err := s.get(k, func() (int, error) {
					if i%8 == 0 {
						// Park some computations so waiters pile onto the
						// in-flight call while other keys churn the LRU.
						time.Sleep(50 * time.Microsecond)
					}
					return k * 10, nil
				})
				if err != nil {
					t.Errorf("get(%d): %v", k, err)
				}
				if v != k*10 {
					t.Errorf("get(%d) = %d, want %d", k, v, k*10)
				}
			}
		}(g)
	}
	wg.Wait()

	hits := s.hits.Load()
	misses := s.misses.Load()
	coalesced := s.coalesced.Load()
	evictions := s.evictions.Load()

	if total := hits + misses + coalesced; total != goroutines*getsEach {
		t.Errorf("conservation broken: hits(%d)+misses(%d)+coalesced(%d) = %d, want %d gets",
			hits, misses, coalesced, total, goroutines*getsEach)
	}
	if resident := int64(s.len()); resident != misses-evictions {
		t.Errorf("residency broken: %d resident, want misses(%d) - evictions(%d) = %d",
			resident, misses, evictions, misses-evictions)
	}
	if s.len() > 4 {
		t.Errorf("store holds %d entries, capacity 4", s.len())
	}
	if evictions == 0 {
		t.Error("test exerted no evictions; raise the pressure")
	}
	if coalesced == 0 {
		t.Error("test exerted no singleflight coalescing; raise the pressure")
	}
}

// TestDeferredSealBuildsOnce launches one generated kernel from many
// goroutines at once, each reaching its code a different way (a
// simulate miss, the content hash, the code itself), and checks that
// the pipeline built it exactly once and every caller saw that build.
func TestDeferredSealBuildsOnce(t *testing.T) {
	p := New(Options{})
	const goroutines = 12
	kernels := make([]*il.Kernel, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := p.Generate(GenALUFetch, testParams())
			if err != nil {
				t.Error(err)
				return
			}
			l := testLaunch{k: k, cfg: sim.Config{
				Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
				W: 64, H: 64, Iterations: 1,
			}}
			switch g % 3 {
			case 0:
				_, err = p.runLaunch(l)
			case 1:
				_, err = l.k.Hash()
			}
			if err == nil {
				kernels[g], err = l.k.Kernel()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := p.builds.Load(); m != 1 {
		t.Errorf("generate.misses = %d, want 1 build", m)
	}
	for g, k := range kernels {
		if k == nil || k != kernels[0] {
			t.Errorf("goroutine %d saw kernel %p, goroutine 0 %p", g, k, kernels[0])
		}
	}
}
