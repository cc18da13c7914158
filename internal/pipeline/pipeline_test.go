package pipeline

import (
	"errors"
	"sync"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

func testParams() kerngen.Params {
	return kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0,
	}
}

// testLaunch is one Simulate call: the source kernel and the launch
// shape (cfg.Prog unset; the pipeline compiles on a miss).
type testLaunch struct {
	k   *il.Sealed
	cfg sim.Config
}

func (p *Pipeline) runLaunch(l testLaunch) (sim.Result, error) {
	return p.Simulate(obs.Span{}, l.k, ilc.Options{}, l.cfg)
}

// direct runs the launch straight through ilc and sim, no pipeline.
func (l testLaunch) direct(t *testing.T) sim.Result {
	t.Helper()
	prog, err := ilc.CompileWith(l.k.Kernel, l.cfg.Spec, ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := l.cfg
	cfg.Prog = prog
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testSimConfig(t *testing.T, p *Pipeline, params kerngen.Params) testLaunch {
	t.Helper()
	k, err := p.Generate(GenALUFetch, params)
	if err != nil {
		t.Fatal(err)
	}
	return testLaunch{k: k, cfg: sim.Config{
		Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
		W: 256, H: 256, Iterations: 1,
	}}
}

func TestGenerateMemoized(t *testing.T) {
	p := New(Options{})
	k1, err := p.Generate(GenALUFetch, testParams())
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.Generate(GenALUFetch, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical (generator, params) should share one kernel artifact")
	}
	if h, m := p.generate.hits.Load(), p.generate.misses.Load(); h != 1 || m != 1 {
		t.Errorf("generate counters = %d hits / %d misses, want 1/1", h, m)
	}
	// A different generator over the same params is a different artifact.
	k3, err := p.Generate(GenReadLatency, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different generators must not collide")
	}
}

func TestCompileMemoizedByContent(t *testing.T) {
	p := New(Options{})
	spec := device.Lookup(device.RV770)
	// Two structurally identical kernels from independent kerngen calls:
	// distinct pointers, identical IL text.
	raw1, err := kerngen.ALUFetch(testParams())
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := kerngen.ALUFetch(testParams())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := il.Seal(raw1), il.Seal(raw2)
	if raw1 == raw2 {
		t.Fatal("test wants distinct kernel pointers")
	}
	p1, err := p.Compile(k1, spec, ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.Compile(k2, spec, ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same IL content on the same device must share one compiled artifact")
	}
	// Different compiler options are a different content address.
	p3, err := p.Compile(k1, spec, ilc.Options{NoClauseTemps: true})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("ablated compile must not be served from the unablated artifact")
	}
	// Different architecture too.
	p4, err := p.Compile(k1, device.Lookup(device.RV870), ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("different arch must not share compiled artifacts")
	}
	if h, m := p.compile.hits.Load(), p.compile.misses.Load(); h != 1 || m != 3 {
		t.Errorf("compile counters = %d hits / %d misses, want 1/3", h, m)
	}
}

func TestSimulateMatchesDirectRunAndMemoizes(t *testing.T) {
	p := New(Options{})
	cfg := testSimConfig(t, p, testParams())

	want := cfg.direct(t)
	got1, err := p.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != want {
		t.Errorf("pipeline result differs from direct sim.Run:\n got %+v\nwant %+v", got1, want)
	}
	got2, err := p.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Error("cached result differs from computed result")
	}
	if h, m, b := p.simulate.hits.Load(), p.simulate.misses.Load(), p.simBypassed.Load(); h != 1 || m != 1 || b != 0 {
		t.Errorf("simulate counters = %d hits / %d misses / %d bypassed, want 1/1/0", h, m, b)
	}
	// Only the miss compiled; the memory hit needed no program.
	if h, m := p.compile.hits.Load(), p.compile.misses.Load(); h+m != 1 {
		t.Errorf("compile lookups = %d hits + %d misses, want 1 (a memory hit compiles nothing)", h, m)
	}
	// Ablations are part of the content address.
	abl := cfg
	abl.cfg.Ablate.SingleWavefront = true
	ra, err := p.runLaunch(abl)
	if err != nil {
		t.Fatal(err)
	}
	if ra == want {
		t.Error("ablated simulation must not be served from the unablated artifact")
	}
}

func TestFaultedSimulationBypassesResultStore(t *testing.T) {
	p := New(Options{})
	cfg := testSimConfig(t, p, testParams())

	nominal, err := p.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	throttled := cfg
	throttled.cfg.ClockFactor = 0.5
	for i := 0; i < 2; i++ {
		res, err := p.runLaunch(throttled)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seconds <= nominal.Seconds {
			t.Error("throttled run should be slower than nominal")
		}
	}
	if b := p.simBypassed.Load(); b != 2 {
		t.Errorf("throttled runs bypassed = %d, want 2", b)
	}
	// The throttled result must not have poisoned the store: the nominal
	// config still serves the nominal artifact.
	again, err := p.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != nominal {
		t.Error("nominal artifact corrupted by a faulted run")
	}

	// A hang faults the launch into the watchdog; the error is returned
	// every time, never cached.
	hung := cfg
	hung.cfg.Hang = &sim.HangFault{Clause: 0}
	hung.cfg.Watchdog = 1 << 20
	for i := 0; i < 2; i++ {
		var wde *sim.WatchdogError
		if _, err := p.runLaunch(hung); !errors.As(err, &wde) {
			t.Fatalf("hung simulation error = %v, want WatchdogError", err)
		}
	}
	if b := p.simBypassed.Load(); b != 4 {
		t.Errorf("bypassed = %d after hangs, want 4", b)
	}
}

func TestReplayArtifactSharedAcrossALUVariants(t *testing.T) {
	p := New(Options{})
	// Same fetch signature (4 inputs, same domain/order), different ALU
	// op counts: distinct compile artifacts, one replay artifact.
	pa := testParams()
	pb := testParams()
	pb.ALUFetchRatio = 2.0
	cfgA := testSimConfig(t, p, pa)
	cfgB := testSimConfig(t, p, pb)
	if cfgA.k.Hash() == cfgB.k.Hash() {
		t.Fatal("test wants distinct kernels")
	}
	if _, err := p.runLaunch(cfgA); err != nil {
		t.Fatal(err)
	}
	if _, err := p.runLaunch(cfgB); err != nil {
		t.Fatal(err)
	}
	if h, m := p.replay.hits.Load(), p.replay.misses.Load(); m != 1 || h != 1 {
		t.Errorf("replay counters = %d hits / %d misses, want 1 hit / 1 miss (shared fetch trace)", h, m)
	}
}

func TestDisabledPipelineRecomputesEverything(t *testing.T) {
	p := New(Options{Disabled: true})
	spec := device.Lookup(device.RV770)
	k, err := p.Generate(GenALUFetch, testParams())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := p.Compile(k, spec, ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.Compile(k, spec, ilc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("disabled pipeline must recompile")
	}
	cfg := testLaunch{k: k, cfg: sim.Config{Spec: spec, Order: raster.PixelOrder(), W: 256, H: 256, Iterations: 1}}
	got, err := p.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg.direct(t) {
		t.Error("disabled pipeline result differs from direct sim.Run")
	}
	if !p.disabled {
		t.Error("pipeline should be disabled")
	}
	// The bypassing launch compiled as well: every stage recomputed.
	if h, m := p.compile.hits.Load(), p.compile.misses.Load(); h != 0 || m != 3 {
		t.Errorf("disabled compile counters = %d hits / %d misses, want 0/3", h, m)
	}
	if b := p.simBypassed.Load(); b != 1 {
		t.Errorf("disabled simulate bypassed = %d, want 1", b)
	}
}

func TestStoreSingleflightComputesOnce(t *testing.T) {
	s := newStore[int, int]("test", obs.NewRegistry(), 8, false)
	const waiters = 16
	computing := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	// One goroutine enters the computation and parks; every other get of
	// the same key must wait for it rather than compute again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.get(1, func() (int, error) {
			calls++ // safe: singleflight admits one computation
			close(computing)
			<-release
			return 42, nil
		})
	}()
	<-computing
	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.get(1, func() (int, error) {
				t.Error("second computation admitted for an in-flight key")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Errorf("waiter got %d, want 42", v)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	// A waiter that arrived while the computation was parked is coalesced;
	// one that arrived after it completed is a plain hit. Either way no
	// waiter recomputed.
	if got := s.coalesced.Load() + s.hits.Load(); got != waiters {
		t.Errorf("coalesced+hits = %d, want %d", got, waiters)
	}
}

func TestStoreLRUEvictionIsBounded(t *testing.T) {
	s := newStore[int, int]("test", obs.NewRegistry(), 2, false)
	mustGet := func(k int) {
		t.Helper()
		if _, err := s.get(k, func() (int, error) { return k * 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(1)
	mustGet(2)
	mustGet(1) // refresh 1; 2 is now least recently used
	mustGet(3) // evicts 2
	if s.len() != 2 {
		t.Errorf("store holds %d entries, want 2", s.len())
	}
	if _, ok := s.items[2]; ok {
		t.Error("2 still resident, want it evicted as least recently used")
	}
	mustGet(2) // must recompute
	if got := s.misses.Load(); got != 4 {
		t.Errorf("misses = %d, want 4 (1, 2, 3, and re-computed 2)", got)
	}
	if got := s.evictions.Load(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}

func TestStoreNeverCachesErrors(t *testing.T) {
	s := newStore[int, int]("test", obs.NewRegistry(), 8, false)
	boom := errors.New("boom")
	if _, err := s.get(1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := s.get(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error = %d, %v; want 7, nil", v, err)
	}
	if s.len() != 1 {
		t.Errorf("store holds %d entries, want 1 (errors are not stored)", s.len())
	}
}

func TestGeneratorTable(t *testing.T) {
	// Every generator has a function, and an out-of-range value has none.
	for g := GenGeneric; g <= GenClauseUsage; g++ {
		if fn, err := g.fn(); err != nil || fn == nil {
			t.Errorf("Generator(%d).fn() = %v, %v", g, fn != nil, err)
		}
	}
	for _, g := range []Generator{-1, GenClauseUsage + 1} {
		if _, err := New(Options{}).Generate(g, testParams()); err == nil {
			t.Errorf("Generator(%d): Generate succeeded, want unknown generator", g)
		}
	}
}
