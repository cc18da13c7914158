package cache

import (
	"fmt"

	"amdgpubench/internal/raster"
)

// Cursor is a resumable replay of one fetch-trace configuration. The
// access stream Replay walks is input-major: every fetch of surface 0 for
// every resident wavefront, then surface 1, and so on (the TEX-clause
// grouping batches consecutive surfaces, which leaves that order
// unchanged). That makes the stream for N inputs a strict prefix of the
// stream for N+1 inputs — the structure dense sweeps exploit: adjacent
// points of an input-count sweep (Fig. 11's 2..18 curve, say) differ
// only in how far the same stream runs.
//
// A Cursor owns the replay's mutable state — the L1/L2/open-row models
// and the running TraceStats — plus the immutable precomputed run table
// of one input's lane stream. Advance(n) replays inputs [Inputs(), n);
// Clone() snapshots the state so a stored prefix can serve many
// successor points without being consumed. Advancing a fresh cursor
// straight to N is bit-identical to the one-shot Replay, which is itself
// implemented on a Cursor.
type Cursor struct {
	cfg  TraceConfig
	l1   *Cache
	l2   *Cache
	rows *Cache

	// runs is one input surface's lane stream, identical for every
	// surface up to the surface base: the fetching lanes of the resident
	// wavefronts in issue order, padding threads dropped. With lineRuns
	// set, each entry is a maximal run of consecutive fetching lanes on
	// one L1 line, and Advance probes the L1 once per run; otherwise each
	// entry is a single lane that Advance fetches through AccessRange.
	// The table is immutable after construction and shared between
	// clones.
	runs     []run
	lineRuns bool
	// spacing is the distance between surface bases: surface k starts at
	// k*spacing. The identity schedule spaces surfaces 2^32 apart so they
	// never alias by accident; a FetchRes schedule replays a packed arena
	// (see TraceConfig) whose surfaces sit Layout.SizeBytes apart.
	spacing uint64

	next int // inputs fully replayed so far
	st   TraceStats
}

// run is n consecutive fetching lanes of the stream, the first at byte
// offset off from the surface base. At 8 bytes an entry, a table
// presized to one entry per lane costs at most 8 B per lane: 16KB at 32
// resident waves.
type run struct{ off, n uint32 }

// NewCursor builds a cursor at input 0: caches cold, the run table
// precomputed. cfg.NumInputs does not bound the cursor — Advance decides
// how far the stream runs.
func NewCursor(cfg TraceConfig) (*Cursor, error) {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.ElemBytes < 0 || cfg.ResidentWaves < 0 || cfg.FirstWave < 0 {
		return nil, fmt.Errorf("cache: invalid trace geometry: %dx%d domain, %d-byte elements, %d resident waves from wave %d",
			cfg.W, cfg.H, cfg.ElemBytes, cfg.ResidentWaves, cfg.FirstWave)
	}
	l1, err := New(cfg.Spec.L1CacheBytes, cfg.Spec.L1LineBytes, cfg.Spec.L1Ways)
	if err != nil {
		return nil, err
	}
	// The shared L2 uses the same line size as the L1 it refills.
	l2, err := New(cfg.Spec.L2CacheBytes, cfg.Spec.L1LineBytes, cfg.Spec.L2Ways)
	if err != nil {
		return nil, err
	}
	// Open-row tracker: a tiny fully-associative LRU over DRAM pages.
	rows, err := New(DRAMRowBytes*OpenRows, DRAMRowBytes, OpenRows)
	if err != nil {
		return nil, err
	}

	geom := raster.Layout{W: cfg.W, H: cfg.H, ElemBytes: cfg.ElemBytes}
	size := uint64(geom.SizeBytes())
	if size > 1<<32 {
		return nil, fmt.Errorf("cache: %d-byte surface exceeds the 4 GiB surface window", size)
	}
	spacing := uint64(1) << 32
	if cfg.FetchRes != nil {
		for s, surf := range cfg.FetchRes {
			if surf < 0 {
				return nil, fmt.Errorf("cache: fetch slot %d reads negative surface %d", s, surf)
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
	lineRuns := l1.pow2 && cfg.ElemBytes > 0 && l1.lineBytes%cfg.ElemBytes == 0 &&
		spacing%uint64(l1.lineBytes) == 0

	// Walk the resident window's lanes once: the raster walk and the
	// tiled/linear address arithmetic are identical for every input
	// surface, so the replay's inner loop reduces to base + offset.
	total := max(cfg.Order.WavefrontCount(cfg.W, cfg.H), 1)
	first := cfg.FirstWave % total
	runs := make([]run, 0, cfg.ResidentWaves*raster.WavefrontSize)
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

	return &Cursor{
		cfg:      cfg,
		l1:       l1,
		l2:       l2,
		rows:     rows,
		runs:     runs,
		lineRuns: lineRuns,
		spacing:  spacing,
	}, nil
}

// Inputs returns how many input surfaces the cursor has fully replayed.
func (cur *Cursor) Inputs() int { return cur.next }

// Clone snapshots the cursor: an independent copy whose Advance leaves
// the original untouched. The immutable run table is shared, so a clone
// costs three cache-state copies (the snapshot store's unit of memory;
// see the package comment on eviction).
func (cur *Cursor) Clone() *Cursor {
	dup := *cur
	dup.l1 = cur.l1.Clone()
	dup.l2 = cur.l2.Clone()
	dup.rows = cur.rows.Clone()
	return &dup
}

// Advance replays inputs [Inputs(), toInputs) through the cache models,
// accumulating statistics. The cursor only moves forward: rewinding a
// replayed prefix would need state the caches no longer hold.
func (cur *Cursor) Advance(toInputs int) error {
	if toInputs < cur.next {
		return fmt.Errorf("cache: cursor at input %d cannot rewind to %d", cur.next, toInputs)
	}
	sched := cur.cfg.FetchRes
	if sched != nil && toInputs > len(sched) {
		return fmt.Errorf("cache: cursor advance to %d exceeds %d scheduled fetch slots", toInputs, len(sched))
	}
	l1, elem := cur.l1, cur.cfg.ElemBytes
	st := cur.st
	for res := cur.next; res < toInputs; res++ {
		// Slot res reads surface res, or FetchRes[res] under a schedule.
		// Every surface shares one geometry and differs only in its base.
		surf := res
		if sched != nil {
			surf = sched[res]
		}
		base := uint64(surf) * cur.spacing
		st.FetchExecs += cur.cfg.ResidentWaves
		for _, r := range cur.runs {
			addr := base + uint64(r.off)
			var h, m int
			if cur.lineRuns {
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
				if cur.l2.Access(addr) {
					st.L2Hits += m
				} else {
					st.L2Misses += m
					if !cur.rows.Access(addr) {
						st.RowActivations++
					}
				}
			}
		}
	}
	cur.st = st
	cur.next = toInputs
	return nil
}

// Stats returns the replay statistics accumulated so far, with the
// line-size-derived traffic fields filled in.
func (cur *Cursor) Stats() TraceStats {
	st := cur.st
	st.MissBytes = st.Misses * cur.cfg.Spec.L1LineBytes
	st.DRAMBytes = st.L2Misses * cur.cfg.Spec.L1LineBytes
	return st
}
