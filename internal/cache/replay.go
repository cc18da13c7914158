package cache

import (
	"fmt"

	"amdgpubench/internal/raster"
)

// run is n consecutive fetching lanes of the stream, the first at byte
// offset off from the surface base. At 8 bytes an entry, a table
// presized to one entry per lane costs at most 8 B per lane: 16KB at 32
// resident waves.
type run struct{ off, n uint32 }

// OneSurface returns the replay that cfg's replay is copies of, and how
// many copies. Under the identity fetch schedule (FetchRes nil), with a
// line size that divides 2^32, that is the one-surface replay, NumInputs
// times; any other cfg is one copy of itself.
//
// Why one surface stands for all of them: surface k sits at k*2^32 and
// the stream is input-major, so every fetch of surface k comes before
// any of surface k+1, and no surface touches another's lines. A touch of
// a set-associative LRU cache hits exactly when fewer than ways other
// lines of its set were touched since its last touch. Once surface k
// starts, the older surfaces' lines are never touched again, so they
// act like invalid ways: a first touch misses whether the way it fills
// is empty or holds an older surface's line, and between two touches of
// a line only lines of surface k come in. When the line size divides
// 2^32, the base shifts every line index of surface k by the same
// amount, so two of its lines share an L1 or L2 set exactly when the
// same offsets of surface 0 do; the 2 KiB DRAM rows shift alike. Every
// surface therefore has surface 0's L1, L2 and row outcomes, and the
// N-input statistics are N times one surface's, field by field. A
// FetchRes schedule revisits surfaces of a packed arena, and a line that
// does not divide 2^32 cuts each surface at different offsets; both
// take the full walk, which is also what the lane oracle checks.
func OneSurface(cfg TraceConfig) (TraceConfig, int) {
	line := cfg.Spec.L1LineBytes
	if cfg.FetchRes != nil || cfg.NumInputs <= 1 || line <= 0 || (1<<32)%uint64(line) != 0 {
		return cfg, 1
	}
	n := cfg.NumInputs
	cfg.NumInputs = 1
	return cfg, n
}

// Scale returns n copies of the statistics, field by field: the replay
// of n surfaces that each replay as s (see OneSurface).
func (s TraceStats) Scale(n int) TraceStats {
	return TraceStats{
		Accesses:       s.Accesses * n,
		Hits:           s.Hits * n,
		Misses:         s.Misses * n,
		MissBytes:      s.MissBytes * n,
		L2Hits:         s.L2Hits * n,
		L2Misses:       s.L2Misses * n,
		DRAMBytes:      s.DRAMBytes * n,
		RowActivations: s.RowActivations * n,
		FetchExecs:     s.FetchExecs * n,
	}
}

// Replay runs the resident set's fetch streams through fresh L1, L2 and
// open-row models with the device's geometry and returns aggregate
// statistics. The stream is input-major: every fetch of slot 0 for every
// resident wavefront, then slot 1, and so on (the TEX-clause grouping
// batches consecutive slots, which leaves that order unchanged). An
// identity-scheduled replay walks one surface and scales it (see
// OneSurface); every other replay walks every slot.
func Replay(cfg TraceConfig) (TraceStats, error) {
	one, copies := OneSurface(cfg)
	st, err := walk(one)
	return st.Scale(copies), err
}

// walk replays every fetch slot of cfg from cold caches.
func walk(cfg TraceConfig) (TraceStats, error) {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.ElemBytes < 0 || cfg.ResidentWaves < 0 || cfg.FirstWave < 0 {
		return TraceStats{}, fmt.Errorf("cache: invalid trace geometry: %dx%d domain, %d-byte elements, %d resident waves from wave %d",
			cfg.W, cfg.H, cfg.ElemBytes, cfg.ResidentWaves, cfg.FirstWave)
	}
	l1, err := New(cfg.Spec.L1CacheBytes, cfg.Spec.L1LineBytes, cfg.Spec.L1Ways)
	if err != nil {
		return TraceStats{}, err
	}
	// The shared L2 uses the same line size as the L1 it refills.
	l2, err := New(cfg.Spec.L2CacheBytes, cfg.Spec.L1LineBytes, cfg.Spec.L2Ways)
	if err != nil {
		return TraceStats{}, err
	}
	// Open-row tracker: a tiny fully-associative LRU over DRAM pages.
	rows, err := New(DRAMRowBytes*OpenRows, DRAMRowBytes, OpenRows)
	if err != nil {
		return TraceStats{}, err
	}
	runs, lineRuns, spacing, err := laneRuns(cfg, l1)
	if err != nil {
		return TraceStats{}, err
	}
	sched := cfg.FetchRes
	if sched != nil && cfg.NumInputs > len(sched) {
		return TraceStats{}, fmt.Errorf("cache: %d fetch slots exceed %d scheduled", cfg.NumInputs, len(sched))
	}

	var st TraceStats
	elem := cfg.ElemBytes
	for res := 0; res < cfg.NumInputs; res++ {
		// Slot res reads surface res, or FetchRes[res] under a schedule.
		// Every surface shares one geometry and differs only in its base.
		surf := res
		if sched != nil {
			surf = sched[res]
		}
		base := uint64(surf) * spacing
		st.FetchExecs += cfg.ResidentWaves
		for _, r := range runs {
			addr := base + uint64(r.off)
			var h, m int
			if lineRuns {
				h = int(r.n)
				if !l1.accessLine(addr >> l1.lineShift) {
					h, m = h-1, 1
				}
			} else {
				h, m = l1.AccessRange(addr, elem)
			}
			st.Hits += h
			st.Misses += m
			st.Accesses += h + m
			if m > 0 {
				// L1 misses refill through the L2; only L2 misses
				// reach DRAM and can open rows.
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
	st.MissBytes = st.Misses * cfg.Spec.L1LineBytes
	st.DRAMBytes = st.L2Misses * cfg.Spec.L1LineBytes
	return st, nil
}

// laneRuns walks the resident window's lanes once and returns one input
// surface's lane stream, identical for every surface up to its base: the
// fetching lanes of the resident wavefronts in issue order, padding
// threads dropped. With lineRuns set, each entry is a maximal run of
// consecutive fetching lanes on one L1 line, probed once; otherwise each
// entry is a single lane fetched through AccessRange. spacing is the
// distance between surface bases: the identity schedule spaces surfaces
// 2^32 apart so they never alias by accident; a FetchRes schedule
// replays a packed arena (see TraceConfig) whose surfaces sit
// Layout.SizeBytes apart.
func laneRuns(cfg TraceConfig, l1 *Cache) (runs []run, lineRuns bool, spacing uint64, err error) {
	geom := raster.Layout{W: cfg.W, H: cfg.H, ElemBytes: cfg.ElemBytes}
	size := uint64(geom.SizeBytes())
	if size > 1<<32 {
		return nil, false, 0, fmt.Errorf("cache: %d-byte surface exceeds the 4 GiB surface window", size)
	}
	spacing = 1 << 32
	if cfg.FetchRes != nil {
		for s, surf := range cfg.FetchRes {
			if surf < 0 {
				return nil, false, 0, fmt.Errorf("cache: fetch slot %d reads negative surface %d", s, surf)
			}
		}
		spacing = size
	}

	// Every lane offset is an element index times ElemBytes, so when the
	// L1 geometry is a power of two and the element size divides the
	// line, one fetch touches exactly one line. If every surface base is
	// also line-aligned, lanes that share a line relative to offset 0
	// share it on every surface. That makes runs exact: after a run's
	// first probe its line is its set's MRU way, and re-probing the MRU
	// way reorders no tags and touches neither the L2 nor the row
	// tracker — it only counts a hit. So one probe per run replays the
	// run: a hit is n hits, a miss is one miss (refilled with the run's
	// first address, as the lane loop would) and n-1 hits.
	lineRuns = l1.pow2 && cfg.ElemBytes > 0 && l1.lineBytes%cfg.ElemBytes == 0 &&
		spacing%uint64(l1.lineBytes) == 0

	// The raster walk and the tiled/linear address arithmetic are
	// identical for every input surface, so the replay's inner loop
	// reduces to base + offset.
	total := max(cfg.Order.WavefrontCount(cfg.W, cfg.H), 1)
	first := cfg.FirstWave % total
	runs = make([]run, 0, cfg.ResidentWaves*raster.WavefrontSize)
	for i := 0; i < cfg.ResidentWaves; i++ {
		wave := (first + i) % total
		for lane := 0; lane < raster.WavefrontSize; lane++ {
			x, y := cfg.Order.Thread(cfg.W, cfg.H, wave, lane)
			if x >= cfg.W || y >= cfg.H {
				continue // padding threads fetch nothing
			}
			var off uint64
			if cfg.LinearLayout {
				off = geom.LinearAddress(x, y)
			} else {
				off = geom.Address(x, y)
			}
			if last := len(runs) - 1; lineRuns && last >= 0 &&
				off>>l1.lineShift == uint64(runs[last].off)>>l1.lineShift {
				runs[last].n++
				continue
			}
			runs = append(runs, run{off: uint32(off), n: 1})
		}
	}
	return runs, lineRuns, spacing, nil
}
