package hier

import (
	"fmt"
	"math"
	"slices"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
)

// Probe schedule constants. Rounds are chosen so the hot-state cold-miss
// fraction (lines-per-quantum / rounds, the texture latency blend the
// simulator exposes) stays well below saturation where the curve still
// has to distinguish hot from thrashed, and high enough that a thrashed
// point saturates.
const (
	l1Rounds     = 32  // float probes: <= 8 lines/quantum, blend <= 1/4 hot
	hotRounds    = 64  // second R for the hot-latency extrapolation
	lineRoundsLo = 64  // float4 line probe: <= 32 lines/quantum
	lineRoundsHi = 128 // twice lineRoundsLo; the blend halves, the rest cancels
	l2Rounds     = 4   // dense L2 capacity sweep: amortizes cold DRAM traffic
	l2WayRounds  = 64  // L2 associativity gap probes

	floatQuantum  = 256  // bytes one wavefront touches per float surface
	float4Quantum = 1024 // and per float4 surface

	// l2ChunkBytes is the L2 capacity search granularity. One chunk is
	// at least one full L2 way-stripe (capacity/ways <= 32 KiB on every
	// supported geometry), so the first footprint one chunk past
	// capacity overloads every set and the knee is a full-thrash step,
	// not a partial one.
	l2ChunkBytes = 32 << 10

	// l2Jump is the cycles-per-fetch step that marks DRAM entering the
	// ladder. The smallest step any supported geometry produces is a
	// ~35-cycle per-fetch DRAM occupancy increase; plateau drift is
	// under 10 cycles and points the other way.
	l2Jump = 25.0

	// The capacity searches give up past these footprints, beyond every
	// supported geometry.
	maxL1Bytes = 64 << 10
	maxL2Bytes = 1 << 20
)

// Config tunes the inference search.
type Config struct {
	// WayCandidates are the L1 associativities tried, in any order —
	// the scan sorts them and takes the smallest thrashing candidate,
	// so inference is invariant under permutations of this schedule
	// (the metamorphic suite checks exactly that). Nil means {2,4,8,16}.
	WayCandidates []int
}

// Inferred is a cache model recovered from timing curves alone.
type Inferred struct {
	L1Bytes     int
	L1LineBytes int
	L1Ways      int
	L2Bytes     int
	L2Ways      int
	// MissDelta estimates TexMissLatency - TexHitLatency in cycles. It
	// carries the L2-fill and cold-DRAM occupancy of the thrashed
	// reference point as a small positive bias (under ~10%).
	MissDelta float64
	// HotLatency and MissLatency are the measured per-fetch band levels
	// the associativity probes threshold between (diagnostics).
	HotLatency  float64
	MissLatency float64
	Probes      int // probe measurements made
}

// Infer recovers the cache model behind a Measurer. The supported
// geometry space (every built-in spec and every SynthSpec sits inside
// it) is: power-of-two L1 of at least 4 KiB with capacity/ways >= 256,
// line size 32..128, L2 a multiple of 32 KiB with at least 4x the L1
// capacity and at least twice its associativity, and a miss-hit latency
// delta of at least ~300 cycles.
//
// Each stage hands the measurer, as one batch, every probe whose shape
// depends on no result not yet read: the hot, line-blend and first L1
// ladder probes up front; once the L1 capacity is known, the thrashed
// references, every L1 way candidate and the L2 ladder's base and first
// rung; then the bisections' two interior points per round and the L2
// way scan in pairs. The doubling ladders do not run ahead: a rung past
// the knee is among the dearest probes, and the knee decides whether it
// is needed.
func Infer(m Measurer, cfg Config) (Inferred, error) {
	ways := cfg.WayCandidates
	if ways == nil {
		ways = []int{2, 4, 8, 16}
	}
	var inf Inferred
	measure := func(ps ...Probe) ([]float64, error) {
		inf.Probes += len(ps)
		return m(ps)
	}
	one := func(p Probe) (float64, error) {
		ls, err := measure(p)
		if err != nil {
			return 0, err
		}
		return ls[0], nil
	}

	// --- Up front: the hot float band at two round counts (the second
	// extrapolates the miss delta below), the line-size blend's two hot
	// float4 points, and the L1 ladder's first rung.
	pLo := Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: 2, Rounds: lineRoundsLo, Batch: 1}
	pHi := Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: 2, Rounds: lineRoundsHi, Batch: 1}
	hot2Probe := Probe{Type: il.Float, SurfaceBytes: floatQuantum, Surfaces: 2, Rounds: hotRounds, Batch: 1}
	ls, err := measure(denseFloat(2), denseFloat(4), hot2Probe, pLo, pHi)
	if err != nil {
		return inf, err
	}
	hot, l, hot2, lLo, lHi := ls[0], ls[1], ls[2], ls[3], ls[4]

	// --- L1 capacity: dense float ladder, doubling bracket + bisection.
	// One footprint quantum past capacity overloads a slice of sets by a
	// whole line-group, which bumps the program's miss blend by >= ~14
	// cycles — far above the in-plateau drift, which is downward (the
	// prologue amortizes away as the fetch count grows).
	maxN := 2 * maxL1Bytes / floatQuantum
	good, goodL, bad := 2, hot, 4
	for l <= hot*1.3 {
		good, goodL = bad, l
		if bad *= 2; bad > maxN {
			return inf, fmt.Errorf("hier: no L1 capacity knee up to %d bytes", maxL1Bytes)
		}
		if l, err = one(denseFloat(bad)); err != nil {
			return inf, err
		}
	}
	// l is now the first rung past the knee.
	margin := math.Max(2, 0.01*(l-goodL))
	good, err = bisect(measure, good, goodL, bad, 1, denseFloat, func(l, goodL float64) bool { return l > goodL+margin })
	if err != nil {
		return inf, err
	}
	inf.L1Bytes = good * floatQuantum

	// --- Everything the L1 capacity alone shapes, as one batch.
	// The thrashed reference sits past 2x L1 but within L2 (the geometry
	// precondition L2 >= 4x L1 guarantees room), so it is the
	// L1-miss/L2-hit band, polluted only by L2 fill.
	nThrash := 2*inf.L1Bytes/floatQuantum + 2
	nLine := 2*inf.L1Bytes/float4Quantum + 2
	// The L2 ladder starts past 4x L1 on a chunk boundary.
	chunkQ := l2ChunkBytes / float4Quantum
	n0 := max((4*inf.L1Bytes/float4Quantum+chunkQ-1)/chunkQ*chunkQ, chunkQ)
	batch := []Probe{
		denseFloat(nThrash),
		{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: nLine, Rounds: lineRoundsLo, Batch: 1},
		denseFloat4(n0),
		denseFloat4(n0 + chunkQ),
	}
	// L1 associativity: w+1 quanta spaced capacity/w apart all alias the
	// same sets, so the probe thrashes exactly when w >= the true way
	// count. Every candidate the geometry admits is measured, sorted, and
	// the smallest thrashing one wins, so the result (probe count
	// included) is invariant under permutations of the candidate
	// schedule (the metamorphic suite checks that).
	sorted := slices.Clone(ways)
	slices.Sort(sorted)
	var cands []int
	for _, w := range slices.Compact(sorted) {
		if w < 1 || inf.L1Bytes%w != 0 {
			continue
		}
		gap := inf.L1Bytes / w
		if gap < floatQuantum || gap%floatQuantum != 0 {
			continue // w larger than the geometry admits; cannot be the answer
		}
		cands = append(cands, w)
		batch = append(batch, Probe{Type: il.Float, SurfaceBytes: gap, Surfaces: w + 1, Rounds: l1Rounds, Batch: 1})
	}
	if ls, err = measure(batch...); err != nil {
		return inf, err
	}
	miss, lThrash, baseL, l := ls[0], ls[1], ls[2], ls[3]
	inf.HotLatency, inf.MissLatency = hot, miss
	thresh := (hot + miss) / 2
	for i, w := range cands {
		if ls[4+i] > thresh {
			inf.L1Ways = w
			break
		}
	}
	if inf.L1Ways == 0 {
		return inf, fmt.Errorf("hier: no L1 associativity signal among candidates %v", ways)
	}

	// --- Line size, by blend inversion. A hot float4 probe's only
	// misses are the cold first round, a fraction lines/(rounds*N) of
	// its fetches, so lambda(R) = base + coldFrac(R)*delta: two R points
	// give the cold-miss slope, a thrashed reference (still L2-resident,
	// so barely polluted) gives delta, and the ratio is the line count
	// per 1 KiB quantum — which only the line size sets.
	delta := lThrash - (2*lHi - lLo)
	diff := lLo - lHi
	if delta <= 0 || diff <= 0 {
		return inf, fmt.Errorf("hier: line-size blend inverted: delta %.2f diff %.2f", delta, diff)
	}
	const n = 2.0
	factor := 1 / (n/(1+float64(lineRoundsLo)*n) - n/(1+float64(lineRoundsHi)*n))
	lines := diff / delta * factor
	lg := int(math.Round(math.Log2(lines)))
	if lg < 3 {
		lg = 3
	} else if lg > 5 {
		lg = 5
	}
	inf.L1LineBytes = float4Quantum >> uint(lg)

	// --- L2 capacity: dense float4 ladder stepped in 32 KiB chunks.
	// Past L1 the texture latency and L2 fill occupancy are constant;
	// the knee is DRAM occupancy appearing, and at chunk granularity it
	// is a full-thrash step, so a midpoint threshold bisects it exactly.
	maxQ := 2 * maxL2Bytes / float4Quantum
	good, goodL, bad = n0, baseL, n0+chunkQ
	for step := 2 * chunkQ; l <= baseL+l2Jump; step *= 2 {
		good, goodL = bad, l
		if bad = n0 + step; bad > maxQ {
			return inf, fmt.Errorf("hier: no L2 capacity knee up to %d bytes", maxL2Bytes)
		}
		if l, err = one(denseFloat4(bad)); err != nil {
			return inf, err
		}
	}
	midThresh := (goodL + l) / 2
	good, err = bisect(measure, good, goodL, bad, chunkQ, denseFloat4, func(l, _ float64) bool { return l > midThresh })
	if err != nil {
		return inf, err
	}
	inf.L2Bytes = good * float4Quantum

	// --- L2 associativity: K quanta spaced a full L2 capacity apart
	// alias one set-group in both caches. The L1 is thrashed throughout
	// (K > L1 ways), so the only moving part is whether K lines fit in
	// an L2 set — the first K that spills to DRAM is ways+1. The
	// reference and the candidates run in pairs.
	kRef := 2 * inf.L1Ways
	var ref float64
	for k := kRef; k <= 17 && inf.L2Ways == 0; k += 2 {
		ks := []int{k, k + 1}
		if k == 17 {
			ks = ks[:1]
		}
		batch := make([]Probe, len(ks))
		for i, kk := range ks {
			batch[i] = l2Gap(inf.L2Bytes, kk)
		}
		if ls, err = measure(batch...); err != nil {
			return inf, err
		}
		for i, kk := range ks {
			if kk == kRef {
				ref = ls[i]
			} else if ls[i] > ref+l2Jump {
				inf.L2Ways = kk - 1
				break
			}
		}
	}
	if inf.L2Ways == 0 {
		return inf, fmt.Errorf("hier: no L2 associativity signal up to 16 ways")
	}

	// --- Miss latency delta: the thrashed float band minus the
	// zero-cold-miss extrapolation of the hot float band.
	inf.MissDelta = miss - (2*hot2 - hot)
	return inf, nil
}

// bisect narrows a knee bracketed by good (below it, measured goodL)
// and bad (past it), both on a grid of unit, until they are adjacent
// grid points, and returns good. Each round measures the bracket's one
// or two interior thirds as one batch and walks them in order: past
// reports whether a point measured l lies past the knee, given the
// current good point's goodL.
func bisect(measure func(...Probe) ([]float64, error), good int, goodL float64, bad, unit int,
	probe func(int) Probe, past func(l, goodL float64) bool) (int, error) {
	for steps := (bad - good) / unit; steps > 1; steps = (bad - good) / unit {
		mids := []int{good + steps/3*unit, good + 2*steps/3*unit}
		if steps == 2 {
			mids = mids[1:]
		}
		ps := make([]Probe, len(mids))
		for i, n := range mids {
			ps[i] = probe(n)
		}
		ls, err := measure(ps...)
		if err != nil {
			return 0, err
		}
		for i, n := range mids {
			if past(ls[i], goodL) {
				bad = n
				break
			}
			good, goodL = n, ls[i]
		}
	}
	return good, nil
}

func denseFloat(n int) Probe {
	return Probe{Type: il.Float, SurfaceBytes: floatQuantum, Surfaces: n, Rounds: l1Rounds, Batch: 1}
}

func denseFloat4(n int) Probe {
	return Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: n, Rounds: l2Rounds, Batch: 1}
}

func l2Gap(l2Bytes, k int) Probe {
	return Probe{Type: il.Float4, SurfaceBytes: l2Bytes, Surfaces: k, Rounds: l2WayRounds, Batch: 1}
}

// MissDeltaTolerance is the relative tolerance Diff allows on the
// inferred miss-hit latency delta: the estimate carries the thrashed
// band's L2-fill and cold-DRAM occupancy as positive bias, bounded by
// ~10% across the supported geometry space.
const MissDeltaTolerance = 0.15

// Mismatch is one inferred parameter that disagrees with ground truth.
type Mismatch struct {
	Param     string
	Got, Want float64
	Tol       float64 // relative tolerance; 0 means exact
}

func (m Mismatch) String() string {
	if m.Tol == 0 {
		return fmt.Sprintf("%s: inferred %g, device says %g", m.Param, m.Got, m.Want)
	}
	return fmt.Sprintf("%s: inferred %g, device says %g (tolerance %g%%)", m.Param, m.Got, m.Want, m.Tol*100)
}

// Diff compares the inferred model against a spec's ground truth:
// capacities, line size and associativities bit-exactly, the latency
// delta within MissDeltaTolerance. An empty result is a proof the
// measured curves and the device table agree.
func (inf Inferred) Diff(spec device.Spec) []Mismatch {
	var ms []Mismatch
	exact := func(param string, got, want int) {
		if got != want {
			ms = append(ms, Mismatch{Param: param, Got: float64(got), Want: float64(want)})
		}
	}
	exact("l1-bytes", inf.L1Bytes, spec.L1CacheBytes)
	exact("l1-line-bytes", inf.L1LineBytes, spec.L1LineBytes)
	exact("l1-ways", inf.L1Ways, spec.L1Ways)
	exact("l2-bytes", inf.L2Bytes, spec.L2CacheBytes)
	exact("l2-ways", inf.L2Ways, spec.L2Ways)
	want := float64(spec.TexMissLatency - spec.TexHitLatency)
	if math.Abs(inf.MissDelta-want) > MissDeltaTolerance*want {
		ms = append(ms, Mismatch{Param: "miss-delta", Got: inf.MissDelta, Want: want, Tol: MissDeltaTolerance})
	}
	return ms
}
