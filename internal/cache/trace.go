package cache

import (
	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

// TraceConfig describes the fetch stream of one resident wavefront set on
// one SIMD engine.
type TraceConfig struct {
	Spec device.Spec
	// Order is the domain walk (pixel tiles or a compute block shape).
	Order raster.Order
	// W, H is the execution domain.
	W, H int
	// ElemBytes is the fetch size per thread (4 for float, 16 for float4).
	ElemBytes int
	// NumInputs is the number of input textures, each its own surface.
	NumInputs int
	// ResidentWaves is the number of wavefronts co-resident on the SIMD;
	// their fetch streams interleave at TEX-clause granularity.
	ResidentWaves int
	// LinearLayout stores surfaces row-major instead of tiled — the
	// ablation showing how much the tiled layout's match with the
	// rasterizer is worth.
	LinearLayout bool
	// FirstWave is the first wavefront index of the resident window. The
	// window is consecutive: while the dispatcher scatters consecutive
	// wavefronts round-robin across SIMD engines, the chip executes a
	// consecutive window of the domain concurrently, and its reuse is
	// captured by the (shared) cache hierarchy. The single replayed cache
	// stands in for that combined L1/L2 behaviour.
	FirstWave int
	// FetchRes, when non-nil, maps each fetch slot to the input surface it
	// reads: slot s fetches surface FetchRes[s], and NumInputs counts
	// SLOTS (len(FetchRes)), not distinct surfaces. Nil keeps the legacy
	// identity schedule (slot s reads surface s). A non-nil schedule also
	// switches the surface bases from the legacy far-apart spacing to a
	// packed arena — surface k at k x Layout.SizeBytes — because the
	// hierarchy-dissection kernels that revisit surfaces measure capacity
	// and set-conflict behaviour, which only exists when surfaces occupy
	// real adjacent addresses the way a packed allocator lays them out.
	FetchRes []int
}

// DRAMRowBytes is the DRAM page granularity used for row-activation
// accounting: fills that land in an already-open row stream at full
// bandwidth, while each newly opened row pays an activation penalty. This
// is what separates the naive 64x1 compute walk (fills scattered across
// eight tiles per wavefront) from the 4x16 block and the pixel-mode tile
// walk (contiguous fills) even when their L1 hit rates agree.
const DRAMRowBytes = 2048

// OpenRows is how many DRAM pages stay open: the row tracker is a
// fully-associative LRU over that many DRAMRowBytes pages.
const OpenRows = 16

// TraceStats summarises one replay.
type TraceStats struct {
	Accesses  int
	Hits      int
	Misses    int
	MissBytes int // L1 miss count x line size: the L1 fill traffic
	// L2Hits and L2Misses split the L1 misses by where they refill from:
	// the shared L2 (cheap) or DRAM (bandwidth plus row activations).
	L2Hits    int
	L2Misses  int
	DRAMBytes int // L2 miss count x line size: actual DRAM read traffic
	// RowActivations counts DRAM page openings in the miss stream; see
	// DRAMRowBytes.
	RowActivations int
	// FetchExecs is the number of (wavefront, fetch-instruction)
	// executions replayed; MissBytes/FetchExecs is the average fill
	// traffic behind one fetch instruction of one wavefront.
	FetchExecs int
}

// HitRate returns the replay's hit fraction.
func (s TraceStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissBytesPerFetch returns average fill bytes per fetch execution.
func (s TraceStats) MissBytesPerFetch() float64 {
	if s.FetchExecs == 0 {
		return 0
	}
	return float64(s.MissBytes) / float64(s.FetchExecs)
}

// ActivationsPerFetch returns average DRAM row activations per fetch
// execution — the scatter penalty of the access pattern.
func (s TraceStats) ActivationsPerFetch() float64 {
	if s.FetchExecs == 0 {
		return 0
	}
	return float64(s.RowActivations) / float64(s.FetchExecs)
}

// DRAMBytesPerFetch returns average DRAM read traffic per fetch execution
// (the part of the fill stream the L2 could not absorb).
func (s TraceStats) DRAMBytesPerFetch() float64 {
	if s.FetchExecs == 0 {
		return 0
	}
	return float64(s.DRAMBytes) / float64(s.FetchExecs)
}

// Replay runs the resident set's fetch streams through a fresh L1 model
// with the device's geometry and returns aggregate statistics. The
// interleaving mirrors clause switching: each wavefront issues one TEX
// clause (up to MaxFetchesPerTEXClause fetches), then the SIMD switches to
// the next resident wavefront, round-robin, until all inputs are fetched.
// It is a one-shot Cursor run from a cold cache straight to NumInputs;
// sweeps that revisit the same stream at growing input counts resume a
// snapshotted Cursor instead (the pipeline's prefix-snapshot store).
func Replay(cfg TraceConfig) (TraceStats, error) {
	cur, err := NewCursor(cfg)
	if err != nil {
		return TraceStats{}, err
	}
	if err := cur.Advance(cfg.NumInputs); err != nil {
		return TraceStats{}, err
	}
	return cur.Stats(), nil
}
