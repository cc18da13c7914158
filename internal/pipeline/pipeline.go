// Package pipeline decomposes the launch path into an explicit staged
// pipeline with content-addressed artifact caching. A timed kernel launch
// is five stages, each producing an immutable, hashable artifact:
//
//	Generate (kerngen)  parameters        -> IL kernel
//	Compile  (ilc)      IL kernel + device -> ISA program
//	Trace    (raster)   program + domain  -> fetch-trace signature
//	Replay   (cache)    trace signature   -> cache replay statistics
//	Simulate (sim)      program + replay  -> timing result
//
// Generate, Replay and Simulate artifacts are memoized in bounded LRU
// stores keyed by content: generated kernels' deferred seals by
// (generator, params), each seal building its code at most once; replay
// artifacts by the fetch signature of the ISA program, the raster order,
// the domain and the cache geometry (plus cache-relevant ablations), an
// identity-scheduled replay at one input whatever its input count (see
// Replay). A compiled program lives on its seal (see Compile). Each memo
// coalesces concurrent computations of the same key (singleflight), so a
// worker pool sweeping hundreds of points never computes the same
// artifact twice at the same time. Every stage carries hit/miss/latency
// counters in the pipeline's metrics registry, surfaced by `amdmb
// -metrics`.
//
// The Simulate key is a function of the source alone — the kernel's
// identity (il.Sealed.ID: a generated kernel's source digest, any other
// kernel's structural hash), the compiler options and the launch
// shape — so Simulate looks its result up first and runs
// Generate's build, Compile, Trace and Replay only on a miss: a launch
// served from memory or from the persistent tier below it builds no
// kernel, compiles nothing, derives no trace and touches no replay
// store.
//
// Because every stage is a pure function of its key, serving an artifact
// from the store is bit-identical to recomputing it: figures produced
// with caching enabled match the cache-disabled, single-worker run
// exactly (internal/core's determinism tests prove it).
//
// Fault injection bypasses the Simulate store in both directions: a
// launch struck by a throttle or hang fault is computed outside the
// store and its result is never cached, so a degraded run can neither be
// served from cache nor poison it. Compile and Replay artifacts are
// fault-independent (faults perturb timing and data, never the compiled
// program or its address trace) and stay shared.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// Options configures a pipeline. The zero value memoizes every stage in
// memory, with the store bounds below.
type Options struct {
	// Disabled turns memoization off: every stage recomputes every
	// artifact. Results are bit-identical either way; the flag exists
	// for baselines and cache-vs-recompute benchmarks. A disabled
	// Replay still walks one surface of an identity-scheduled trace:
	// that is cache.Replay's own arithmetic, not a store.
	Disabled bool
	// PersistDir, when non-empty, attaches the persistent on-disk tier
	// under the Simulate store (see persist.go): results missing in
	// memory are looked up in the index of <PersistDir>/simulate read
	// when the pipeline is built, and computed results are appended
	// there, one fsynced record each. Disabled turns the tier off along
	// with everything else.
	PersistDir string
}

// Entry bounds per LRU store. A replay entry is one TraceStats, and an
// identity-scheduled replay is stored once per family, at one input (see
// Replay), so the replay bound counts families, not sweep points. The
// seal bound also bounds generated kernels' compiled programs.
const (
	defaultSealEntries     = 4096
	defaultReplayEntries   = 1024
	defaultSimulateEntries = 8192
)

// Pipeline stages launches and memoizes their artifacts. It is safe for
// concurrent use; cal contexts and core suites are its clients.
type Pipeline struct {
	disabled bool
	metrics  *obs.Registry

	seals    *store[generateKey, *il.Sealed]
	compile  stats // the programs live on their seals (Compile)
	replay   *store[replayKey, cache.TraceStats]
	simulate *store[simulateKey, sim.Result]

	// The Trace stage is a pure derivation with nothing worth storing;
	// it keeps plain counters, and so do the builds of deferred seals,
	// which their seals memoize. simBypassed counts Simulate computations
	// that skipped the store (fault-injected or memoization off).
	builds      *obs.Counter
	buildNS     *obs.Counter
	traceCount  *obs.Counter
	traceNS     *obs.Counter
	simBypassed *obs.Counter
	simBypassNS *obs.Counter
}

// New builds a pipeline with its own metrics registry.
func New(opts Options) *Pipeline {
	reg := obs.NewRegistry()
	p := &Pipeline{
		disabled:    opts.Disabled,
		metrics:     reg,
		builds:      reg.Counter("pipeline.generate.misses"),
		buildNS:     reg.Counter("pipeline.generate.compute_ns"),
		traceCount:  reg.Counter("pipeline.trace.derivations"),
		traceNS:     reg.Counter("pipeline.trace.compute_ns"),
		simBypassed: reg.Counter("pipeline.simulate.bypassed"),
		simBypassNS: reg.Counter("pipeline.simulate.bypass_ns"),
	}
	p.seals = newStore[generateKey, *il.Sealed]("seal", reg, defaultSealEntries, opts.Disabled)
	p.compile = newStats("compile", reg)
	p.replay = newStore[replayKey, cache.TraceStats]("replay", reg, defaultReplayEntries, opts.Disabled)
	p.simulate = newStore[simulateKey, sim.Result]("simulate", reg, defaultSimulateEntries, opts.Disabled)
	if opts.PersistDir != "" && !opts.Disabled {
		t := newPersistTier(opts.PersistDir, reg)
		p.simulate.tierLoad = t.load
		p.simulate.tierStore = t.store
	}
	return p
}

// Metrics returns the registry the pipeline's counters live in — the
// one `-metrics` dumps. Clients (cal contexts, the sweep runner)
// register their own counters into it so one snapshot covers the whole
// launch path.
func (p *Pipeline) Metrics() *obs.Registry { return p.metrics }

// ---- Stage 1: Generate ----

// Generator names a kerngen kernel generator; with its Params it is the
// Generate stage's content address.
type Generator int

const (
	GenGeneric Generator = iota
	GenALUFetch
	GenReadLatency
	GenWriteLatency
	GenDomain
	GenRegisterUsage
	GenClauseUsage
)

// generators is the one table of prepare steps, indexed by Generator.
var generators = [...]func(kerngen.Params) (kerngen.Prepared, error){
	GenGeneric:       kerngen.PrepareGeneric,
	GenALUFetch:      kerngen.PrepareALUFetch,
	GenReadLatency:   kerngen.PrepareReadLatency,
	GenWriteLatency:  kerngen.PrepareWriteLatency,
	GenDomain:        kerngen.PrepareDomain,
	GenRegisterUsage: kerngen.PrepareRegisterUsage,
	GenClauseUsage:   kerngen.PrepareClauseUsage,
}

func (g Generator) fn() (func(kerngen.Params) (kerngen.Prepared, error), error) {
	if g < 0 || int(g) >= len(generators) {
		return nil, fmt.Errorf("pipeline: unknown generator %d", int(g))
	}
	return generators[g], nil
}

type generateKey struct {
	gen    Generator
	params kerngen.Params
}

// Generate returns the named kerngen generator's kernel for params as a
// deferred seal, without building it. The parameters are checked and
// defaulted here, so a bad one fails now, with the generator's error;
// the code is built on first need (a compile miss, functional
// execution, the content hash), once per seal, and counted as
// pipeline.generate.misses. The seal's identity is sourceID of the
// settled parameters, so a launch served from the simulate store or the
// persistent tier builds no kernel at all. Seals are memoized on (generator, params): every
// point of a sweep that asks for one kernel shares one seal.
func (p *Pipeline) Generate(g Generator, params kerngen.Params) (*il.Sealed, error) {
	prepare, err := g.fn()
	if err != nil {
		return nil, err
	}
	key := generateKey{gen: g, params: params}
	return p.seals.get(key, func() (*il.Sealed, error) {
		pr, err := prepare(params)
		if err != nil {
			return nil, err
		}
		return il.SealDeferred(sourceID(g, pr.Params), pr.Params.Name, pr.Params.Mode, func() (*il.Kernel, error) {
			start := time.Now()
			k, err := pr.Build()
			p.buildNS.Add(time.Since(start).Nanoseconds())
			p.builds.Add(1)
			return k, err
		}), nil
	})
}

// sourceTag opens every source digest's encoding. A content hash's
// encoding starts with its version byte, 1, so the two never coincide.
const sourceTag = "amdmb/kerngen-source/v1"

// sourceID is a generated kernel's identity: the SHA-256 of a fixed
// binary encoding of the generator and every field of its settled
// parameters (strings length-prefixed, floats bit-exact). The model
// fingerprint covers what the generators make of it.
func sourceID(g Generator, p kerngen.Params) [sha256.Size]byte {
	var buf [160]byte // the tag, twelve words, a short name
	le := binary.LittleEndian
	b := append(buf[:0], sourceTag...)
	b = le.AppendUint64(b, uint64(g))
	b = le.AppendUint64(b, uint64(len(p.Name)))
	b = append(b, p.Name...)
	for _, v := range [...]int{
		int(p.Mode), int(p.Type), p.Inputs, p.Outputs,
		int(p.InputSpace), int(p.OutSpace), p.ALUOps, p.Space, p.Step, p.Constants,
	} {
		b = le.AppendUint64(b, uint64(int64(v)))
	}
	b = le.AppendUint64(b, math.Float64bits(p.ALUFetchRatio))
	return sha256.Sum256(b)
}

// ---- Stage 2: Compile ----

// compileKey keys a seal's programs: the compiler target (ilc.Target,
// all the compiler reads of a device) and options. Every built-in card
// has one target, so a pixel kernel compiles once for all three.
type compileKey struct {
	target ilc.Target
	opts   ilc.Options
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Compile lowers an IL kernel for a device, memoized on the seal by the
// device's compiler target and the options: cards that share a target
// share one program, which is freed with its seal. The kernel is checked
// against spec first (ilc.Check: validity and compute support), so a
// card that cannot run it fails with its own name and never reaches the
// memo. The returned program is shared and immutable. A hit builds and
// hashes nothing; a call that waits on another's compile is a hit.
func (p *Pipeline) Compile(k *il.Sealed, spec device.Spec, opts ilc.Options) (*isa.Program, error) {
	if err := ilc.Check(k, spec); err != nil {
		return nil, err
	}
	key := compileKey{target: ilc.TargetOf(spec), opts: opts}
	compile := func() (*isa.Program, error) {
		start := time.Now()
		prog, err := ilc.CompileSealed(k, key.target, key.opts)
		p.compile.observeCompute(time.Since(start))
		p.compile.misses.Add(1)
		return prog, err
	}
	if p.disabled {
		return compile()
	}
	prog, hit, err := il.Memo(k, key, compile)
	if hit {
		p.compile.hits.Add(1)
	}
	return prog, err
}

// ---- Stage 3: Trace ----

// Trace derives the fetch-trace signature of a simulation config — the
// replay stage's input. ok is false when the program fetches nothing
// through the texture cache.
func (p *Pipeline) Trace(cfg sim.Config) (cache.TraceConfig, bool) {
	start := time.Now()
	tc, ok := sim.TraceConfigFor(cfg)
	p.traceNS.Add(time.Since(start).Nanoseconds())
	p.traceCount.Add(1)
	return tc, ok
}

// ---- Stage 4: Replay ----

// replayKey is the content address of a cache replay: the fetch
// signature and domain walk plus the cache geometry the replay touches.
type replayKey struct {
	order         raster.Order
	w, h          int
	elemBytes     int
	numInputs     int
	residentWaves int
	firstWave     int
	linear        bool
	// Cache geometry: L1 and L2 shape plus the TEX-clause grouping that
	// sets the replay's interleave.
	l1Bytes, l1Line, l1Ways int
	l2Bytes, l2Ways         int
	maxFetchesTEX           int
	// fetchSeq digests a non-identity fetch schedule (cache.TraceConfig.
	// FetchRes): hierarchy-dissection kernels that revisit surfaces get
	// their own replay identity per schedule. Zero for the identity
	// schedule, so every pre-existing replay key is unchanged.
	fetchSeq [sha256.Size]byte
}

func replayKeyFor(tc cache.TraceConfig) replayKey {
	k := replayKey{
		order:         tc.Order,
		w:             tc.W,
		h:             tc.H,
		elemBytes:     tc.ElemBytes,
		numInputs:     tc.NumInputs,
		residentWaves: tc.ResidentWaves,
		firstWave:     tc.FirstWave,
		linear:        tc.LinearLayout,
		l1Bytes:       tc.Spec.L1CacheBytes,
		l1Line:        tc.Spec.L1LineBytes,
		l1Ways:        tc.Spec.L1Ways,
		l2Bytes:       tc.Spec.L2CacheBytes,
		l2Ways:        tc.Spec.L2Ways,
		maxFetchesTEX: tc.Spec.MaxFetchesPerTEXClause,
	}
	if tc.FetchRes != nil {
		h := sha256.New()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tc.FetchRes)))
		h.Write(buf[:])
		for _, surf := range tc.FetchRes {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(surf)))
			h.Write(buf[:])
		}
		h.Sum(k.fetchSeq[:0])
	}
	return k
}

// Replay runs the trace through the cache model, memoized on the fetch
// signature, raster order, domain and cache geometry. Kernels that share
// a fetch trace — the whole ALU:Fetch ratio sweep of Fig. 7, say, where
// only the ALU op count varies — share one replay artifact. An
// identity-scheduled replay of N inputs is N copies of its one-surface
// replay (cache.OneSurface), so it is keyed and stored at one input and
// scaled on return: the points of an input-count sweep (Figs. 7, 11 and
// 16) that differ only in how many inputs they fetch share one entry.
func (p *Pipeline) Replay(tc cache.TraceConfig) (cache.TraceStats, error) {
	one, copies := cache.OneSurface(tc)
	st, err := p.replay.get(replayKeyFor(one), func() (cache.TraceStats, error) {
		return cache.Replay(one)
	})
	return st.Scale(copies), err
}

// ---- Stage 5: Simulate ----

// simulateKey content-addresses a timing result by its source: the
// kernel's identity, the compiler options and everything else the
// simulator reads, so a lookup needs no compile. The full device spec
// participates because timing depends on nearly all of it; it holds the
// compiler target too.
type simulateKey struct {
	kernel     [sha256.Size]byte // il.Sealed.ID
	opts       ilc.Options
	spec       device.Spec
	order      raster.Order
	w, h       int
	iterations int
	ablate     sim.Ablations
	watchdog   uint64
}

// Simulate times kernel k, compiled with opts, at cfg's device and
// launch shape (cfg.Prog is ignored), memoizing the result. The store
// lookups come first: a memory or disk hit serves the result without
// compiling, tracing or replaying, and only a miss runs those stages and
// the simulator (see launch). Fault-injected configurations — a hang or
// a throttled clock — bypass the result store entirely: they are
// recomputed every time and never cached, so a degraded run can neither
// be served stale nor poison later launches.
//
// The simulate span covers the whole stage and, on a miss, the compile,
// trace and replay spans nest inside it, which is how `amdmb -trace`
// shows a sweep as per-launch lanes of nested stage spans. The zero Span
// traces nothing and costs nothing.
func (p *Pipeline) Simulate(sp obs.Span, k *il.Sealed, opts ilc.Options, cfg sim.Config) (sim.Result, error) {
	xsp := sp.Child("simulate").Cat("stage")
	defer xsp.End()

	faulted := cfg.Hang != nil || (cfg.ClockFactor != 0 && cfg.ClockFactor != 1)
	if p.disabled || faulted {
		res, d, err := p.launch(xsp, k, opts, cfg)
		p.simBypassNS.Add(d.Nanoseconds())
		p.simBypassed.Add(1)
		return res, err
	}

	key := simulateKey{
		kernel:     k.ID(),
		opts:       opts,
		spec:       cfg.Spec,
		order:      cfg.Order,
		w:          cfg.W,
		h:          cfg.H,
		iterations: cfg.Iterations,
		ablate:     cfg.Ablate,
		watchdog:   cfg.Watchdog,
	}
	return p.simulate.getTimed(key, func() (sim.Result, time.Duration, error) {
		return p.launch(xsp, k, opts, cfg)
	})
}

// launch is the Simulate stage's compute: build a deferred seal's code
// if nothing has yet (under a generate span), compile the kernel, derive the
// fetch trace, serve its cache statistics from the Replay store, then run
// the simulator. The duration it returns is the simulator's alone —
// compile, trace and replay charge their own stage counters, so the
// stages stay disjoint.
func (p *Pipeline) launch(sp obs.Span, k *il.Sealed, opts ilc.Options, cfg sim.Config) (sim.Result, time.Duration, error) {
	if !k.Built() {
		gsp := sp.Child("generate").Cat("stage")
		_, err := k.Kernel()
		gsp.End()
		if err != nil {
			return sim.Result{}, 0, err
		}
	}
	csp := sp.Child("compile").Cat("stage")
	prog, err := p.Compile(k, cfg.Spec, opts)
	csp.End()
	if err != nil {
		return sim.Result{}, 0, err
	}
	cfg.Prog = prog
	tsp := sp.Child("trace").Cat("stage")
	tc, ok := p.Trace(cfg)
	tsp.End()
	if ok {
		rsp := sp.Child("replay").Cat("stage")
		st, err := p.Replay(tc)
		rsp.End()
		if err != nil {
			return sim.Result{}, 0, err
		}
		cfg.Trace = &st
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	return res, time.Since(start), err
}

// HitRate is the fraction of artifact lookups, over every stage, served
// without computing: hits and coalesced waits over all lookups, each
// trace derivation and kernel build counting as a miss. It is the cache
// hit rate the live sweep progress line reports.
func (p *Pipeline) HitRate() float64 {
	hits, total := int64(0), p.traceCount.Load()+p.builds.Load()
	for _, c := range [][3]*obs.Counter{
		{p.seals.hits, p.seals.coalesced, p.seals.misses},
		{p.compile.hits, p.compile.coalesced, p.compile.misses},
		{p.replay.hits, p.replay.coalesced, p.replay.misses},
		{p.simulate.hits, p.simulate.coalesced, p.simulate.misses},
	} {
		h := c[0].Load() + c[1].Load()
		hits += h
		total += h + c[2].Load()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
