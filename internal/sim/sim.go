// Package sim is the timing simulator for compiled kernels on the modelled
// AMD GPUs. It executes the clause schedule of a resident wavefront set on
// one SIMD engine's resources — the ALU pipeline, the texture pipeline,
// the per-SIMD share of the DRAM system, and the export path — with an
// event-driven loop in which wavefronts hide latency by clause switching,
// exactly the mechanism Section II of the paper describes. Whole-domain,
// whole-experiment times come from replicating the steady-state batch
// across SIMD engines, dispatch batches and the suite's 5000 kernel
// iterations.
//
// The three bottlenecks the paper's micro-benchmarks classify (ALU
// throughput, texture fetch, memory access) are emergent here: each is a
// resource, and whichever pipe saturates paces the batch.
package sim

import (
	"fmt"
	"sync"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/mem"
	"amdgpubench/internal/raster"
)

// DefaultIterations is the paper's repetition count: every kernel of every
// micro-benchmark was executed 5000 times for stable timings.
const DefaultIterations = 5000

// Iterations resolves an iteration count: zero means DefaultIterations.
func Iterations(n int) int {
	if n == 0 {
		return DefaultIterations
	}
	return n
}

// LaunchOverheadCycles approximates per-invocation driver/dispatch cost;
// the paper notes kernel invocation time exceeds the execution time of a
// domain-of-one kernel, which is why realistic domains are used. It is
// exported so the conformance suite's domain-linearity invariant can
// subtract the per-launch constant before comparing cycle totals.
const LaunchOverheadCycles = 20000

// DefaultWatchdogBudget is the forward-progress cycle budget for one
// steady-state batch when Config.Watchdog is zero. Real batches finish in
// well under a billion cycles; a wavefront set that has not drained by
// 2^40 cycles is stuck, not slow.
const DefaultWatchdogBudget = uint64(1) << 40

// HangFault injects a clause that never retires: the issuing wavefront
// stalls forever, the failure mode a driver watchdog reset recovers on
// real hardware. Clause is the clause index; negative picks the last.
type HangFault struct {
	Clause int
}

// WatchdogError is the structured diagnostic the watchdog aborts with
// when a wavefront set stops retiring work within the cycle budget: which
// wavefront is stuck entering which clause, how far the batch got, and
// the per-pipe busy counters accumulated before the abort.
type WatchdogError struct {
	Wave     int      // the stuck wavefront
	Clause   int      // the clause it cannot complete
	Clauses  int      // total clauses in the kernel
	At       uint64   // the cycle the stuck event surfaced
	Budget   uint64   // the budget it exceeded
	Retired  int      // clause executions retired before the abort
	Waiting  int      // wavefronts still in flight (including the stuck one)
	Counters Counters // pipe busy cycles up to the abort
}

// Error renders the diagnostic.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf(
		"watchdog: no forward progress within %d cycles: wavefront %d stuck entering clause %d/%d at cycle %d (%d clause executions retired, %d wavefronts in flight)",
		e.Budget, e.Wave, e.Clause, e.Clauses, e.At, e.Retired, e.Waiting)
}

// Ablations switches individual hardware mechanisms off so their
// contribution to the paper's results can be quantified (DESIGN.md §7).
type Ablations struct {
	// SingleWavefront caps residency at one wavefront per SIMD: no clause
	// switching, no latency hiding — the mechanism behind Fig. 16.
	SingleWavefront bool
	// NoBurstWrites makes every global/stream write pay a DRAM row
	// activation per cache-line-sized chunk instead of streaming — the
	// consecutive-address burst facility of Section II-B turned off.
	NoBurstWrites bool
	// LinearTextures stores textures row-major instead of tiled, breaking
	// the match between the rasterizer's walk and the cache.
	LinearTextures bool
}

// Config describes one kernel execution experiment.
type Config struct {
	Spec  device.Spec
	Prog  *isa.Program
	Order raster.Order
	W, H  int
	// Iterations is the number of kernel invocations to time; zero means
	// DefaultIterations, and a negative count fails the run.
	Iterations int
	// Ablate selectively disables hardware mechanisms.
	Ablate Ablations
	// Watchdog is the forward-progress cycle budget per steady-state
	// batch; an event surfacing past it aborts the run with a
	// *WatchdogError. Zero means DefaultWatchdogBudget.
	Watchdog uint64
	// Hang, when non-nil, injects a clause that never retires (fault
	// injection); the watchdog is what must catch it.
	Hang *HangFault
	// ClockFactor scales the effective core clock, modelling a thermal
	// throttle event; 0 or 1 means nominal. Cycle counts are unaffected,
	// only Seconds stretches.
	ClockFactor float64
	// Trace, when non-nil, supplies precomputed cache-replay statistics
	// for the program's texture fetch stream; nil replays the trace
	// internally. The stats must come from a replay of exactly the
	// configuration TraceConfigFor derives — the staged pipeline uses
	// this to serve memoized replay artifacts into the simulation.
	Trace *cache.TraceStats
}

// TraceConfigFor derives the cache-replay configuration a simulation
// implies: the fetch signature of the compiled program (how many cached
// texture fetches, at what element size) combined with the domain walk,
// the resident-wavefront window and the cache-relevant ablations. It is
// the pipeline's Trace stage. ok is false when the program issues no
// cached texture fetches — such kernels have no replay stage — or the
// config is too malformed to trace.
func TraceConfigFor(cfg Config) (cache.TraceConfig, bool) {
	if cfg.Prog == nil || cfg.W <= 0 || cfg.H <= 0 {
		return cache.TraceConfig{}, false
	}
	texFetches, elem := textureFootprint(cfg.Prog)
	if texFetches == 0 {
		return cache.TraceConfig{}, false
	}
	waves := cfg.Spec.WavefrontsForGPRs(cfg.Prog.GPRCount)
	if cfg.Ablate.SingleWavefront {
		waves = 1
	}
	return cache.TraceConfig{
		Spec:          cfg.Spec,
		Order:         cfg.Order,
		W:             cfg.W,
		H:             cfg.H,
		ElemBytes:     elem,
		NumInputs:     texFetches,
		ResidentWaves: waves,
		LinearLayout:  cfg.Ablate.LinearTextures,
		FetchRes:      fetchSchedule(cfg.Prog),
	}, true
}

// fetchSchedule extracts the per-slot resource schedule of the program's
// cached fetch stream. A kernel that samples each input exactly once in
// declaration order — every kerngen kernel — has the identity schedule,
// returned as nil so its trace identity (and every memoized replay keyed
// on it) is unchanged. The hierarchy-dissection kernels revisit inputs
// (pointer-chase rounds), and their non-identity schedules replay against
// the packed arena cache.TraceConfig documents.
func fetchSchedule(p *isa.Program) []int {
	var seq []int
	identity := true
	for _, f := range p.Fetches {
		if f.Global {
			continue
		}
		if int(f.Resource) != len(seq) {
			identity = false
		}
		seq = append(seq, int(f.Resource))
	}
	if identity {
		return nil
	}
	return seq
}

// Counters holds per-resource busy cycles for one steady-state batch.
type Counters struct {
	ALU       uint64 // ALU pipeline
	TexIssue  uint64 // texture unit issue occupancy
	L2Fill    uint64 // L2 occupancy refilling texture L1 misses
	TexFill   uint64 // DRAM occupancy refilling texture L2 misses
	MemGlobal uint64 // DRAM occupancy of uncached global reads and writes
	Export    uint64 // streaming store (color buffer) path
}

// Bottleneck is the resource that limits a kernel, the classification the
// suite exists to produce.
type Bottleneck int

const (
	// BottleneckALU means the stream cores pace the kernel.
	BottleneckALU Bottleneck = iota
	// BottleneckFetch means the texture fetch path (issue or L1 fill)
	// paces the kernel.
	BottleneckFetch
	// BottleneckMemory means uncached global memory traffic or the store
	// path paces the kernel.
	BottleneckMemory
)

// String names the bottleneck.
func (b Bottleneck) String() string {
	switch b {
	case BottleneckALU:
		return "ALU"
	case BottleneckFetch:
		return "fetch"
	case BottleneckMemory:
		return "memory"
	}
	return "?"
}

// Result is the outcome of one simulated experiment.
type Result struct {
	Cycles       uint64  // total cycles across all iterations
	Seconds      float64 // Cycles at the core clock
	WavesPerSIMD int     // resident wavefronts (GPR-limited occupancy)
	GPRs         int     // per-thread register footprint
	GPRWrites    int     // per-thread register-file writes (isa.Stats.GPRWrites)
	TotalWaves   int     // wavefronts covering the domain
	Batches      int     // dispatch batches per SIMD
	HitRate      float64 // texture L1 hit rate (0 when no texture fetches)
	Counters     Counters
	Bottleneck   Bottleneck
}

// step is one clause converted to resource costs.
type step struct {
	aluOcc  uint64 // ALU pipe occupancy
	texOcc  uint64 // texture pipe occupancy
	l2Occ   uint64 // L2 fill occupancy (texture L1 refills)
	memOcc  uint64 // DRAM occupancy (fill or global traffic)
	expOcc  uint64 // export path occupancy
	latency uint64 // additional cycles until dependent clauses may start
	isFill  bool   // memOcc is texture fill (fetch path) traffic
}

// Run simulates the configured kernel and returns its timing.
func Run(cfg Config) (Result, error) {
	if cfg.Prog == nil {
		return Result{}, fmt.Errorf("sim: nil program")
	}
	if err := cfg.Prog.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if cfg.W <= 0 || cfg.H <= 0 {
		return Result{}, fmt.Errorf("sim: bad domain %dx%d", cfg.W, cfg.H)
	}
	if cfg.Prog.Mode != cfg.Order.Mode {
		return Result{}, fmt.Errorf("sim: program compiled for %s mode but order is %s", cfg.Prog.Mode, cfg.Order)
	}
	if cfg.Prog.Mode == il.Compute && !cfg.Spec.SupportsCompute {
		return Result{}, fmt.Errorf("sim: %s does not support compute shader mode", cfg.Spec.Arch)
	}
	if cfg.Iterations < 0 {
		return Result{}, fmt.Errorf("sim: negative iteration count %d", cfg.Iterations)
	}
	iters := Iterations(cfg.Iterations)

	dram, err := mem.NewDRAM(cfg.Spec)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	res := Result{GPRs: cfg.Prog.GPRCount, GPRWrites: cfg.Prog.Stats().GPRWrites}
	res.WavesPerSIMD = cfg.Spec.WavefrontsForGPRs(cfg.Prog.GPRCount)
	if cfg.Ablate.SingleWavefront {
		res.WavesPerSIMD = 1
	}
	res.TotalWaves = cfg.Order.WavefrontCount(cfg.W, cfg.H)

	// Texture-path statistics from the trace-driven cache replay: either
	// the pipeline's memoized replay artifact, or a fresh replay of the
	// fetch trace TraceConfigFor derives.
	var trace cache.TraceStats
	if tc, ok := TraceConfigFor(cfg); ok {
		if cfg.Trace != nil {
			trace = *cfg.Trace
		} else {
			trace, err = cache.Replay(tc)
			if err != nil {
				return Result{}, fmt.Errorf("sim: %w", err)
			}
		}
		res.HitRate = trace.HitRate()
	}

	// The step slice is scratch: Run is on the launch hot path (every
	// simulate-store miss lands here), so the slice is pooled rather than
	// reallocated per call.
	sp := stepsPool.Get().(*[]step)
	steps := buildSteps(cfg, dram, trace, (*sp)[:0])
	defer func() {
		*sp = steps
		stepsPool.Put(sp)
	}()

	// Steady-state batch on one SIMD, then replicate.
	wavesPerSIMDTotal := ceilDiv(res.TotalWaves, cfg.Spec.SIMDEngines)
	full := wavesPerSIMDTotal / res.WavesPerSIMD
	rem := wavesPerSIMDTotal % res.WavesPerSIMD
	res.Batches = full
	if rem > 0 {
		res.Batches++
	}

	budget := cfg.Watchdog
	if budget == 0 {
		budget = DefaultWatchdogBudget
	}
	hang := -1
	if cfg.Hang != nil {
		hang = cfg.Hang.Clause
		if hang < 0 || hang >= len(steps) {
			hang = len(steps) - 1
		}
	}

	makespan, counters, wderr := simulateBatch(steps, res.WavesPerSIMD, budget, hang)
	if wderr != nil {
		return Result{}, fmt.Errorf("sim: %w", wderr)
	}
	total := uint64(full) * makespan
	if rem > 0 {
		m2, _, wderr2 := simulateBatch(steps, rem, budget, hang)
		if wderr2 != nil {
			return Result{}, fmt.Errorf("sim: %w", wderr2)
		}
		total += m2
	}
	total += LaunchOverheadCycles

	clock := float64(cfg.Spec.CoreClockMHz) * 1e6
	if cfg.ClockFactor > 0 && cfg.ClockFactor != 1 {
		clock *= cfg.ClockFactor
	}
	res.Counters = counters
	res.Cycles = total * uint64(iters)
	res.Seconds = float64(res.Cycles) / clock
	res.Bottleneck = classify(counters)
	return res, nil
}

// textureFootprint returns the number of texture (cached) fetch
// instructions and the element size of the program's fetches.
func textureFootprint(p *isa.Program) (n, elemBytes int) {
	elemBytes = p.Type.Bytes()
	for _, f := range p.Fetches {
		if !f.Global {
			n++
		}
	}
	return n, elemBytes
}

// stepsPool recycles the per-run step slices across simulations.
var stepsPool = sync.Pool{
	New: func() any { s := make([]step, 0, 64); return &s },
}

// buildSteps converts each clause into resource costs, appending onto
// steps (usually a pooled slice). The trace-derived per-fetch costs —
// fill occupancy, DRAM traffic, clause-switching latency — are the same
// for every cached fetch of the program, so they are computed once here
// rather than once per fetch per clause.
func buildSteps(cfg Config, dram *mem.DRAM, trace cache.TraceStats, steps []step) []step {
	spec := cfg.Spec
	// Each thread processor has an odd and an even wavefront slot; with a
	// single resident wavefront "only half the thread processor is used"
	// (Section II-A): the ALU pipeline cannot be filled back-to-back.
	aluPenalty := 1
	if spec.WavefrontsForGPRs(cfg.Prog.GPRCount) < spec.SlotsPerTP || cfg.Ablate.SingleWavefront {
		aluPenalty = 2
	}

	// Invariants of every cached (texture-path) fetch in the program.
	// L1 refills drain through the L2; the slice the L2 cannot absorb
	// goes to DRAM and pays row activations.
	l2OccPerFetch := uint64(trace.MissBytesPerFetch() / float64(spec.L2BytesPerCycle))
	memOccPerFetch := dram.TransferCycles(
		int(trace.DRAMBytesPerFetch()),
		trace.ActivationsPerFetch())
	// A wavefront's TEX clause completes at its slowest fetch: with 64
	// threads per fetch the clause all but certainly contains a miss, so
	// the clause-switching stall is the miss latency, not the per-access
	// average.
	missesPerFetch := 0.0
	if trace.FetchExecs > 0 {
		missesPerFetch = float64(trace.Misses) / float64(trace.FetchExecs)
	}
	texLatency := uint64(spec.TexMissLatency)
	if missesPerFetch < 1 {
		texLatency = uint64(missesPerFetch*float64(spec.TexMissLatency) +
			(1-missesPerFetch)*float64(spec.TexHitLatency))
	}

	prog := cfg.Prog
	for _, c := range prog.Clauses {
		var s step
		switch c.Kind {
		case isa.ClauseALU:
			s.aluOcc = uint64(c.Len() * spec.CyclesPerALUBundle() * aluPenalty)
		case isa.ClauseTEX:
			for _, f := range prog.FetchesOf(c) {
				if f.Global {
					// Uncached global read: address issue through the
					// texture units, traffic through DRAM.
					bytes := spec.WavefrontSize * int(f.ElemBytes)
					s.texOcc += 4
					s.memOcc += dram.GlobalReadCycles(bytes)
					if dram.ReadLatency > s.latency {
						s.latency = dram.ReadLatency
					}
				} else {
					s.texOcc += uint64(spec.FetchIssueCycles(int(f.ElemBytes)))
					s.l2Occ += l2OccPerFetch
					s.memOcc += memOccPerFetch
					s.isFill = true
					if texLatency > s.latency {
						s.latency = texLatency
					}
				}
			}
		case isa.ClauseEXP:
			for _, e := range prog.ExportsOf(c) {
				bytes := spec.WavefrontSize * int(e.ElemBytes)
				s.expOcc += uint64(spec.StreamStoreCycles)
				s.memOcc += writeCycles(dram, bytes, cfg.Ablate.NoBurstWrites)
			}
		case isa.ClauseMEM:
			for _, e := range prog.ExportsOf(c) {
				bytes := spec.WavefrontSize * int(e.ElemBytes)
				s.memOcc += writeCycles(dram, bytes, cfg.Ablate.NoBurstWrites)
			}
		}
		steps = append(steps, s)
	}
	return steps
}

// writeCycles prices a wavefront's store: bursting at full bandwidth, or,
// under the no-burst ablation, paying a row activation per 64B chunk.
func writeCycles(dram *mem.DRAM, bytes int, noBurst bool) uint64 {
	if noBurst {
		return dram.ScatteredWriteCycles(bytes, (bytes+63)/64)
	}
	return dram.BurstWriteCycles(bytes)
}

// simulateBatch runs `waves` wavefronts through the clause steps on one
// SIMD engine's pipes and returns the makespan and busy counters. The
// budget is the forward-progress watchdog: the event-driven loop only
// ever advances time, so the first event surfacing past the budget
// proves the remaining wavefronts cannot retire within it, and the batch
// aborts with a structured diagnostic instead of spinning. A hang index
// >= 0 injects a clause that never completes (its issuing wavefront's
// next event lands beyond the budget), which is exactly the failure the
// watchdog exists to catch.
//
// Pending events live in a time-sorted ready list (events.go) rather
// than a heap: every re-queued event is at or after the event being
// processed, so the steady state is an O(1) append at the tail, and pop
// order — ascending (at, wave) — is identical to the heap it replaced,
// keeping results bit-identical.
func simulateBatch(steps []step, waves int, budget uint64, hang int) (uint64, Counters, *WatchdogError) {
	var alu, tex, l2, dram, exp mem.Pipe
	var fillBusy, globalBusy uint64

	rl := readyPool.Get().(*readyList)
	rl.reset()
	defer readyPool.Put(rl)
	// Appending events in (at=0, wave ascending) order already satisfies
	// the sort invariant; no separate init pass is needed.
	for w := 0; w < waves; w++ {
		rl.ev = append(rl.ev, event{at: 0, wave: w, clause: 0})
	}

	counters := func() Counters {
		return Counters{
			ALU:       alu.Busy(),
			TexIssue:  tex.Busy(),
			L2Fill:    l2.Busy(),
			TexFill:   fillBusy,
			MemGlobal: globalBusy,
			Export:    exp.Busy(),
		}
	}

	numSteps := len(steps)
	var makespan uint64
	retired := 0
	for rl.len() > 0 {
		e := rl.pop()
		if e.at > budget {
			return 0, Counters{}, &WatchdogError{
				Wave:     e.wave,
				Clause:   e.clause,
				Clauses:  numSteps,
				At:       e.at,
				Budget:   budget,
				Retired:  retired,
				Waiting:  rl.len() + 1,
				Counters: counters(),
			}
		}
		if e.clause >= numSteps {
			if e.at > makespan {
				makespan = e.at
			}
			continue
		}
		if e.clause == hang {
			// The clause issues but never retires: re-surface the same
			// clause past the budget so the watchdog sees the stall.
			rl.push(event{at: budget + 1, wave: e.wave, clause: e.clause})
			continue
		}
		s := &steps[e.clause]
		ready := e.at
		if s.aluOcc > 0 {
			_, done := alu.Acquire(ready, s.aluOcc)
			ready = done
		}
		if s.texOcc > 0 {
			_, done := tex.Acquire(ready, s.texOcc)
			ready = done
		}
		if s.l2Occ > 0 {
			_, done := l2.Acquire(ready, s.l2Occ)
			ready = done
		}
		if s.memOcc > 0 {
			_, done := dram.Acquire(ready, s.memOcc)
			ready = done
			if s.isFill {
				fillBusy += s.memOcc
			} else {
				globalBusy += s.memOcc
			}
		}
		if s.expOcc > 0 {
			_, done := exp.Acquire(ready, s.expOcc)
			ready = done
		}
		ready += s.latency
		retired++
		rl.push(event{at: ready, wave: e.wave, clause: e.clause + 1})
	}

	return makespan, counters(), nil
}

// classify maps busy counters to the paper's three bottleneck classes. The
// fetch path is the greater of issue and fill occupancy (they pipeline);
// memory covers global reads/writes and the store path.
func classify(c Counters) Bottleneck {
	fetch := c.TexIssue
	if c.L2Fill > fetch {
		fetch = c.L2Fill
	}
	if c.TexFill > fetch {
		fetch = c.TexFill
	}
	memory := c.MemGlobal + c.Export
	switch {
	case c.ALU >= fetch && c.ALU >= memory:
		return BottleneckALU
	case fetch >= memory:
		return BottleneckFetch
	default:
		return BottleneckMemory
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
