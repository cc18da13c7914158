package conformance

// Metamorphic invariants: properties relating a simulation or replay to a
// transformed variant of itself, checkable without knowing the true
// output. Where the differential oracles pin functional semantics, these
// pin the timing model — the part of the suite no reference interpreter
// can cross-check.

import (
	"fmt"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// ExtendDependentALU returns a copy of k with a chain of n additional
// dependent add instructions spliced in immediately before the final
// store, which is rewired to consume the end of the chain. The chain
// serializes (each add reads the previous result), so it adds ALU work to
// the critical path without touching fetch or store traffic.
func ExtendDependentALU(k *il.Kernel, n int) *il.Kernel {
	c := cloneKernel(k)
	if n <= 0 {
		return c
	}
	last := -1
	for i, in := range c.Code {
		if in.Op.IsStore() {
			last = i
		}
	}
	reg := c.Code[last].SrcA
	base := il.Reg(c.NumTemps())
	chain := make([]il.Instr, n)
	for i := range chain {
		chain[i] = il.Instr{Op: il.OpAdd, Dst: base + il.Reg(i), SrcA: reg, SrcB: reg, Res: -1}
		reg = base + il.Reg(i)
	}
	code := make([]il.Instr, 0, len(c.Code)+n)
	code = append(code, c.Code[:last]...)
	code = append(code, chain...)
	code = append(code, c.Code[last:]...)
	code[last+n].SrcA = reg
	c.Code = code
	return c
}

// OrderFor returns a domain walk matching the kernel's shader mode: the
// rasterizer's tiled order for pixel kernels, the paper's 4x16 block for
// compute kernels.
func OrderFor(mode il.ShaderMode) raster.Order {
	if mode == il.Compute {
		return raster.Block4x16()
	}
	return raster.PixelOrder()
}

func simResult(k *il.Kernel, spec device.Spec, w, h int) (sim.Result, *isa.Program, error) {
	prog, err := ilc.Compile(k, spec)
	if err != nil {
		return sim.Result{}, nil, fmt.Errorf("compile: %w", err)
	}
	r, err := sim.Run(sim.Config{
		Spec: spec, Prog: prog, Order: OrderFor(k.Mode),
		W: w, H: h, Iterations: 1,
	})
	if err != nil {
		return sim.Result{}, nil, fmt.Errorf("sim: %w", err)
	}
	return r, prog, nil
}

// aluSlots counts scalar ALU slot occupancy across the program — the
// compiler-invariant measure of ALU work, independent of how the VLIW
// packer distributes it over bundles.
func aluSlots(p *isa.Program) int {
	n := 0
	for _, b := range p.Bundles {
		n += len(b.Ops)
	}
	return n
}

// monotonicJitter bounds the scheduling anomaly the event-driven batch
// simulator is allowed: greedy list scheduling is subject to Graham's
// anomalies, where adding work de-synchronizes the resident wavefronts'
// contention pattern and a batch finishes slightly sooner. Measured
// anomalies sit well under 1%; anything past 2% is a model bug, not
// scheduling jitter.
const monotonicJitter = 0.98

// CheckCycleMonotonic asserts that extending a kernel with chains of
// dependent ALU instructions cannot speed it up. The strict invariants:
// the compiled program's scalar ALU slot count grows by exactly the ops
// added (the compiler drops nothing), per-wavefront ALU occupancy never
// falls (the packer may absorb a short chain into half-empty bundles,
// so equality is legal), register footprint never shrinks, and occupancy
// never rises. Total cycles may wobble within the scheduling-jitter
// bound — both per step and against the base — but no further. The spec
// must support the kernel's shader mode.
func CheckCycleMonotonic(k *il.Kernel, spec device.Spec) error {
	const w, h = 128, 128
	fail := func(form string, args ...any) error {
		return fmt.Errorf("conformance: monotonic: %s on %s: %s\nkernel:\n%s",
			k.Name, spec.Arch, fmt.Sprintf(form, args...), il.Assemble(k))
	}
	base, baseProg, err := simResult(k, spec, w, h)
	if err != nil {
		return fail("base: %v", err)
	}
	baseSlots := aluSlots(baseProg)
	perWaveALU := func(r sim.Result) uint64 { return r.Counters.ALU / uint64(r.WavesPerSIMD) }
	prev, prevN := base, 0
	for _, n := range []int{4, 32, 160} {
		ext := ExtendDependentALU(k, n)
		if err := ext.Validate(); err != nil {
			return fail("extension by %d invalid: %v", n, err)
		}
		r, prog, err := simResult(ext, spec, w, h)
		if err != nil {
			return fail("+%d ALU: %v", n, err)
		}
		// Each added add is a vector op: one scalar slot per lane.
		if got, want := aluSlots(prog), baseSlots+n*k.Type.Lanes(); got != want {
			return fail("+%d dependent ALU ops compiled to %d scalar slots, want %d",
				n, got, want)
		}
		if perWaveALU(r) < perWaveALU(prev) {
			return fail("+%d dependent ALU ops lowered per-wave ALU occupancy (%d -> %d)",
				n, perWaveALU(prev), perWaveALU(r))
		}
		if r.GPRs < prev.GPRs {
			return fail("+%d dependent ALU ops shrank the register footprint (%d -> %d GPRs)",
				n, prev.GPRs, r.GPRs)
		}
		if r.WavesPerSIMD > prev.WavesPerSIMD {
			return fail("+%d dependent ALU ops raised occupancy (%d -> %d waves/SIMD)",
				n, prev.WavesPerSIMD, r.WavesPerSIMD)
		}
		if float64(r.Cycles) < float64(prev.Cycles)*monotonicJitter {
			return fail("+%d dependent ALU ops ran in %d cycles, beyond jitter below %d cycles at +%d",
				n, r.Cycles, prev.Cycles, prevN)
		}
		prev, prevN = r, n
	}
	if float64(prev.Cycles) < float64(base.Cycles)*monotonicJitter {
		return fail("+%d dependent ALU ops beat the base kernel beyond jitter (%d vs %d cycles)",
			prevN, prev.Cycles, base.Cycles)
	}
	return nil
}

// CheckDomainLinearity asserts that doubling the execution domain scales
// the per-iteration cycle count by ~2x once the constant
// sim.LaunchOverheadCycles is subtracted: the steady-state batch is
// replicated across the domain, so work scales with wavefront count. The
// tolerance absorbs remainder-batch rounding and domain-edge cache
// effects; [1.8, 2.2] holds comfortably for generator-produced kernels.
func CheckDomainLinearity(k *il.Kernel, spec device.Spec, lo, hi float64) error {
	const w, h = 512, 512
	r1, _, err := simResult(k, spec, w, h)
	if err != nil {
		return fmt.Errorf("conformance: linearity: %w\nkernel:\n%s", err, il.Assemble(k))
	}
	r2, _, err := simResult(k, spec, w, 2*h)
	if err != nil {
		return fmt.Errorf("conformance: linearity: doubled domain: %w\nkernel:\n%s", err, il.Assemble(k))
	}
	c1, c2 := r1.Cycles, r2.Cycles
	work1 := float64(c1 - sim.LaunchOverheadCycles)
	work2 := float64(c2 - sim.LaunchOverheadCycles)
	if work1 <= 0 {
		return fmt.Errorf("conformance: linearity: %s: no work beyond launch overhead (%d cycles)", k.Name, c1)
	}
	if ratio := work2 / work1; ratio < lo || ratio > hi {
		return fmt.Errorf(
			"conformance: linearity: %s on %s: doubling the domain scaled overhead-corrected cycles by %.3f, outside [%.2f, %.2f] (%d -> %d)\nkernel:\n%s",
			k.Name, spec.Arch, ratio, lo, hi, c1, c2, il.Assemble(k))
	}
	return nil
}

// CheckReplayConservation asserts the cache replay's conservation laws,
// which hold for every configuration: every access is a hit or a miss,
// every miss refills from exactly one of L2 or DRAM, fill traffic is
// miss count times line size, and the replay executes exactly one fetch
// per (input resource, resident wavefront) pair with at most a
// wavefront's worth of lane accesses each — one line touch per lane when
// the element size divides the line and every fetch address is
// element-aligned (lane offsets always are; a packed arena's bases are
// multiples of the surface size, identity bases of 2^32, which a 12-byte
// element does not divide), else as many as the lines one element can
// straddle.
func CheckReplayConservation(cfg cache.TraceConfig) error {
	st, err := cache.Replay(cfg)
	if err != nil {
		return fmt.Errorf("conformance: replay: %w", err)
	}
	fail := func(form string, args ...any) error {
		return fmt.Errorf("conformance: replay conservation (%+v): "+form, append([]any{cfg}, args...)...)
	}
	if want := cfg.NumInputs * cfg.ResidentWaves; st.FetchExecs != want {
		return fail("FetchExecs %d != inputs x waves %d", st.FetchExecs, want)
	}
	if st.Hits+st.Misses != st.Accesses {
		return fail("Hits %d + Misses %d != Accesses %d", st.Hits, st.Misses, st.Accesses)
	}
	if st.L2Hits+st.L2Misses != st.Misses {
		return fail("L2Hits %d + L2Misses %d != Misses %d", st.L2Hits, st.L2Misses, st.Misses)
	}
	if st.MissBytes != st.Misses*cfg.Spec.L1LineBytes {
		return fail("MissBytes %d != Misses %d x line %d", st.MissBytes, st.Misses, cfg.Spec.L1LineBytes)
	}
	if st.DRAMBytes != st.L2Misses*cfg.Spec.L1LineBytes {
		return fail("DRAMBytes %d != L2Misses %d x line %d", st.DRAMBytes, st.L2Misses, cfg.Spec.L1LineBytes)
	}
	span, line := 1, cfg.Spec.L1LineBytes
	if e := cfg.ElemBytes; e > 0 && (line%e != 0 || cfg.FetchRes == nil && (1<<32)%uint64(e) != 0) {
		span = 1 + (e+line-2)/line // 1 + ceil((e-1)/line)
	}
	if st.Accesses > st.FetchExecs*raster.WavefrontSize*span {
		return fail("Accesses %d exceed %d lanes x %d lines per fetch", st.Accesses, raster.WavefrontSize, span)
	}
	if st.RowActivations > st.L2Misses {
		return fail("RowActivations %d exceed L2Misses %d", st.RowActivations, st.L2Misses)
	}
	return nil
}

// CheckReplayMatchesLanes asserts cache.Replay's statistics equal a
// lane-by-lane recomputation from the model's definition, built only on
// the exported cache and raster API: fresh cache.New models, every
// resident wavefront's lanes walked in issue order for every fetch slot,
// and one L1 AccessRange per fetching lane, refilled through the L2 and
// the open-row tracker on a miss. Replay folds lanes into line runs
// where that is exact, and replays one surface for an identity schedule
// of many; this oracle does neither, so a mis-folded run (a wrong count,
// or runs taken where surface bases are not line-aligned) or a wrongly
// scaled surface shows up as a differing field.
func CheckReplayMatchesLanes(cfg cache.TraceConfig) error {
	got, err := cache.Replay(cfg)
	if err != nil {
		return fmt.Errorf("conformance: replay: %w", err)
	}
	want, err := laneReplay(cfg)
	if err != nil {
		return fmt.Errorf("conformance: lane replay: %w", err)
	}
	if got != want {
		return fmt.Errorf("conformance: replay (%+v) = %+v, lane-by-lane replay = %+v", cfg, got, want)
	}
	return nil
}

// laneReplay is the per-lane replay CheckReplayMatchesLanes compares
// against. Slot s reads surface s, or FetchRes[s]; surfaces sit 2^32
// apart, or Layout.SizeBytes apart in a FetchRes arena.
func laneReplay(cfg cache.TraceConfig) (cache.TraceStats, error) {
	spec := cfg.Spec
	l1, err := cache.New(spec.L1CacheBytes, spec.L1LineBytes, spec.L1Ways)
	if err != nil {
		return cache.TraceStats{}, err
	}
	l2, err := cache.New(spec.L2CacheBytes, spec.L1LineBytes, spec.L2Ways)
	if err != nil {
		return cache.TraceStats{}, err
	}
	rows, err := cache.New(cache.DRAMRowBytes*cache.OpenRows, cache.DRAMRowBytes, cache.OpenRows)
	if err != nil {
		return cache.TraceStats{}, err
	}
	geom := raster.Layout{W: cfg.W, H: cfg.H, ElemBytes: cfg.ElemBytes}
	spacing := uint64(1) << 32
	if cfg.FetchRes != nil {
		spacing = uint64(geom.SizeBytes())
	}
	total := max(cfg.Order.WavefrontCount(cfg.W, cfg.H), 1)
	var st cache.TraceStats
	for slot := 0; slot < cfg.NumInputs; slot++ {
		surf := slot
		if cfg.FetchRes != nil {
			surf = cfg.FetchRes[slot]
		}
		base := uint64(surf) * spacing
		for i := 0; i < cfg.ResidentWaves; i++ {
			st.FetchExecs++
			wave := (cfg.FirstWave + i) % total
			for lane := 0; lane < raster.WavefrontSize; lane++ {
				x, y := cfg.Order.Thread(cfg.W, cfg.H, wave, lane)
				if x >= cfg.W || y >= cfg.H {
					continue
				}
				off := geom.Address(x, y)
				if cfg.LinearLayout {
					off = geom.LinearAddress(x, y)
				}
				addr := base + off
				h, m := l1.AccessRange(addr, cfg.ElemBytes)
				st.Hits += h
				st.Misses += m
				st.Accesses += h + m
				if m == 0 {
					continue
				}
				if l2.Access(addr) {
					st.L2Hits += m
				} else {
					st.L2Misses += m
					if !rows.Access(addr) {
						st.RowActivations++
					}
				}
			}
		}
	}
	st.MissBytes = st.Misses * spec.L1LineBytes
	st.DRAMBytes = st.L2Misses * spec.L1LineBytes
	return st, nil
}

// CheckReplayRotationInvariance asserts hit counts are permutation-safe
// where the model says they must be: with the whole domain resident and
// caches large enough (made fully associative here, capacity beyond the
// surface footprint) every miss is compulsory — the first touch of each
// line — so rotating which wavefront leads the resident window cannot
// change any count except RowActivations, which is legitimately
// order-dependent and excluded. A rotation is a FirstWave, so it must be
// non-negative; cache.Replay rejects a negative one.
func CheckReplayRotationInvariance(cfg cache.TraceConfig, rotations []int) error {
	cfg.ResidentWaves = cfg.Order.WavefrontCount(cfg.W, cfg.H)
	cfg.FirstWave = 0

	// Fully-associative caches sized past the total surface footprint:
	// one set, LRU over everything, so hits and misses depend only on the
	// set of lines touched, not the touch order.
	foot := raster.Layout{W: cfg.W, H: cfg.H, ElemBytes: cfg.ElemBytes}.SizeBytes() * cfg.NumInputs
	size := cfg.Spec.L1LineBytes
	for size < 4*foot {
		size *= 2
	}
	cfg.Spec.L1CacheBytes = size
	cfg.Spec.L1Ways = size / cfg.Spec.L1LineBytes
	cfg.Spec.L2CacheBytes = size
	cfg.Spec.L2Ways = size / cfg.Spec.L1LineBytes

	base, err := cache.Replay(cfg)
	if err != nil {
		return fmt.Errorf("conformance: rotation: %w", err)
	}
	base.RowActivations = 0
	for _, rot := range rotations {
		c := cfg
		c.FirstWave = rot
		st, err := cache.Replay(c)
		if err != nil {
			return fmt.Errorf("conformance: rotation by %d: %w", rot, err)
		}
		st.RowActivations = 0
		if st != base {
			return fmt.Errorf(
				"conformance: rotation: compulsory-miss replay is order-sensitive: FirstWave %d gives %+v, FirstWave 0 gives %+v (config %+v)",
				rot, st, base, c)
		}
	}
	return nil
}
