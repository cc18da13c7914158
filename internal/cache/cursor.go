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
// and the running TraceStats — plus the immutable precomputed lane-offset
// table. Advance(n) replays inputs [Inputs(), n); Clone() snapshots the
// state so a stored prefix can serve many successor points without being
// consumed. Advancing a fresh cursor straight to N is bit-identical to
// the one-shot Replay, which is itself implemented on a Cursor.
type Cursor struct {
	cfg  TraceConfig
	l1   *Cache
	l2   *Cache
	rows *Cache

	// offs is the precomputed lane-offset table: one address offset per
	// (resident wavefront, lane), identical for every input surface. It
	// is immutable after construction and shared between clones.
	offs       []int64
	singleLine bool
	// spacing is the distance between surface bases: surface k starts at
	// k*spacing. The identity schedule spaces surfaces 2^32 apart so they
	// never alias by accident; a FetchRes schedule replays a packed arena
	// (see TraceConfig) whose surfaces sit Layout.SizeBytes apart.
	spacing uint64

	next int // inputs fully replayed so far
	st   TraceStats
}

// NewCursor builds a cursor at input 0: caches cold, lane offsets
// precomputed. cfg.NumInputs does not bound the cursor — Advance decides
// how far the stream runs.
func NewCursor(cfg TraceConfig) (*Cursor, error) {
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
	rows, err := New(DRAMRowBytes*openRows, DRAMRowBytes, openRows)
	if err != nil {
		return nil, err
	}

	waves := make([]int, cfg.ResidentWaves)
	total := cfg.Order.WavefrontCount(cfg.W, cfg.H)
	for i := range waves {
		waves[i] = (cfg.FirstWave + i) % max(total, 1)
	}

	// Precompute each resident wavefront's 64 lane offsets once per
	// (order, layout): the raster walk and the tiled/linear address
	// arithmetic are identical for every input surface, so the replay's
	// inner loop reduces to base + offset. A negative offset marks a
	// padding thread outside the domain, which fetches nothing.
	geom := raster.Layout{W: cfg.W, H: cfg.H, ElemBytes: cfg.ElemBytes}
	offs := make([]int64, len(waves)*raster.WavefrontSize)
	for wi, wv := range waves {
		for lane := 0; lane < raster.WavefrontSize; lane++ {
			off := int64(-1)
			x, y := cfg.Order.Thread(cfg.W, cfg.H, wv, lane)
			if x < cfg.W && y < cfg.H {
				if cfg.LinearLayout {
					off = int64(geom.LinearAddress(x, y))
				} else {
					off = int64(geom.Address(x, y))
				}
			}
			offs[wi*raster.WavefrontSize+lane] = off
		}
	}

	// An element fetch touches exactly one line when the L1 geometry is a
	// power of two and every element offset is element-aligned with the
	// element size dividing the line size — true for all the suite's
	// float/float4 surfaces. Proving it once here lets the inner loop call
	// the line-granular probe directly instead of the general
	// AccessRange span walk.
	singleLine := l1.pow2 && cfg.ElemBytes > 0 &&
		l1.lineBytes%cfg.ElemBytes == 0 && cfg.ElemBytes <= l1.lineBytes
	if singleLine {
		for _, off := range offs {
			if off >= 0 && off%int64(cfg.ElemBytes) != 0 {
				singleLine = false
				break
			}
		}
	}

	spacing := uint64(1) << 32
	if cfg.FetchRes != nil {
		for s, surf := range cfg.FetchRes {
			if surf < 0 {
				return nil, fmt.Errorf("cache: fetch slot %d reads negative surface %d", s, surf)
			}
		}
		spacing = uint64(geom.SizeBytes())
	}

	return &Cursor{
		cfg:        cfg,
		l1:         l1,
		l2:         l2,
		rows:       rows,
		offs:       offs,
		singleLine: singleLine,
		spacing:    spacing,
	}, nil
}

// Inputs returns how many input surfaces the cursor has fully replayed.
func (cur *Cursor) Inputs() int { return cur.next }

// Clone snapshots the cursor: an independent copy whose Advance leaves
// the original untouched. The immutable lane-offset table is shared, so
// a clone costs three cache-state copies (the snapshot store's unit of
// memory; see the package comment on eviction).
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
	st := &cur.st
	waves := cur.cfg.ResidentWaves
	sched := cur.cfg.FetchRes
	if sched != nil && toInputs > len(sched) {
		return fmt.Errorf("cache: cursor advance to %d exceeds %d scheduled fetch slots", toInputs, len(sched))
	}
	for res := cur.next; res < toInputs; res++ {
		// Slot res reads surface res, or FetchRes[res] under a schedule.
		// Every surface shares one geometry and differs only in its base.
		surf := res
		if sched != nil {
			surf = sched[res]
		}
		base := uint64(surf) * cur.spacing
		for wi := 0; wi < waves; wi++ {
			st.FetchExecs++
			lanes := cur.offs[wi*raster.WavefrontSize : (wi+1)*raster.WavefrontSize]
			for _, off := range lanes {
				if off < 0 {
					continue // padding threads fetch nothing
				}
				addr := base + uint64(off)
				var h, m int
				if cur.singleLine {
					if cur.l1.accessLine(addr >> cur.l1.lineShift) {
						h = 1
					} else {
						m = 1
					}
				} else {
					h, m = cur.l1.AccessRange(addr, cur.cfg.ElemBytes)
				}
				st.Hits += h
				st.Misses += m
				st.Accesses += h + m
				if m > 0 {
					// L1 misses refill through the L2; only L2
					// misses reach DRAM and can open rows.
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
	}
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
