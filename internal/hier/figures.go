package hier

import (
	"fmt"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/report"
)

// The hierarchy figures are campaign-grade core.FigureSpecs: their
// points run through the same campaign scheduler, artifact stores and
// shard partitioning as the paper's figures, and each
// point's Plot converts wall-clock seconds into the per-fetch cycle and
// bandwidth units the dissection argues in.

// footprintGridKB is the working-set sweep for the ladder figures, in
// KiB (one float4 surface quantum per KiB). It spans every built-in
// L1 (8-16 KiB) and L2 (128-512 KiB) with log-spaced coverage on both
// sides of each boundary, ending past the largest L2.
var footprintGridKB = []int{2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 640, 768}

// lineRoundsGrid is the hier-line figure's rounds sweep: the cold-miss
// fraction decays as 1/R, which is the structure the line-size
// inference inverts.
var lineRoundsGrid = []int{16, 32, 64, 128, 256}

// strideWaysGrid is the hier-stride figure's candidate associativity
// sweep.
var strideWaysGrid = []int{1, 2, 4, 8, 16}

// pointSink collects a figure's probe points. It seals each distinct
// probe once, so the cards that run it share one seal and with it one
// compiled program per compiler target.
type pointSink struct {
	s     *core.Suite
	seals map[Probe]*il.Sealed
	pts   []core.KernelPoint
	err   error
}

// add plans one probe point: x is the plotted abscissa, conv maps the
// run's seconds into the figure's unit.
func (ps *pointSink) add(spec device.Spec, p Probe, x float64, conv func(Env, Probe, core.Run) float64) {
	if ps.err != nil {
		return
	}
	k, ok := ps.seals[p]
	if !ok {
		raw, err := p.Kernel()
		if err != nil {
			ps.err = err
			return
		}
		k = il.Seal(raw)
		ps.seals[p] = k
	}
	pt := probePoint(spec, k, p, x)
	env := EnvFor(spec, ps.s.Iterations)
	pt.Plot = func(r core.Run) (float64, float64) { return x, conv(env, p, r) }
	ps.pts = append(ps.pts, pt)
}

func lambdaOf(env Env, p Probe, r core.Run) float64 { return env.Lambda(p, r.Seconds) }

func gbpsOf(env Env, p Probe, r core.Run) float64 {
	return env.FetchedBytes(p) * float64(env.Iterations) / r.Seconds / 1e9
}

// LatencyLadderSpec plans hier-lat: the pointer-chase latency ladder.
// Dense float4 footprints sweep across the L1 and L2 boundaries; the
// per-fetch latency steps from the hot band through the L2 band to
// DRAM, and report.Plateaus segments exactly those steps.
func LatencyLadderSpec(s *core.Suite) (core.FigureSpec, error) {
	fig := &report.Figure{
		Title:  "Memory hierarchy latency ladder (chase, float4)",
		XLabel: "footprint KB", YLabel: "cycles/fetch",
	}
	ps := &pointSink{s: s, seals: map[Probe]*il.Sealed{}}
	for _, spec := range device.All() {
		for _, kb := range footprintGridKB {
			p := Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: kb, Rounds: lineRoundsLo, Batch: 1}
			ps.add(spec, p, float64(kb), lambdaOf)
		}
	}
	return core.FigureSpec{Fig: fig, Points: ps.pts}, ps.err
}

// WorkingSetSpec plans hier-wset: the same footprint sweep with eight
// fetches per TEX clause, so clause latency amortizes and the curve
// reads as effective fetch bandwidth per level.
func WorkingSetSpec(s *core.Suite) (core.FigureSpec, error) {
	fig := &report.Figure{
		Title:  "Working-set bandwidth (batched fetch, float4)",
		XLabel: "footprint KB", YLabel: "GB/s",
	}
	ps := &pointSink{s: s, seals: map[Probe]*il.Sealed{}}
	for _, spec := range device.All() {
		for _, kb := range footprintGridKB {
			p := Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: kb, Rounds: 2, Batch: 8}
			ps.add(spec, p, float64(kb), gbpsOf)
		}
	}
	return core.FigureSpec{Fig: fig, Points: ps.pts}, ps.err
}

// LineBlendSpec plans hier-line: a hot two-surface float4 chase whose
// only misses are the first round's cold lines. Per-fetch latency
// decays toward the pure-hit floor as rounds grow; the decay amplitude
// is proportional to lines-per-quantum — the line-size signal the
// inference inverts.
func LineBlendSpec(s *core.Suite) (core.FigureSpec, error) {
	fig := &report.Figure{
		Title:  "Cold-miss blend decay (hot chase, float4, 2 surfaces)",
		XLabel: "rounds", YLabel: "cycles/fetch",
	}
	ps := &pointSink{s: s, seals: map[Probe]*il.Sealed{}}
	for _, spec := range device.All() {
		for _, r := range lineRoundsGrid {
			p := Probe{Type: il.Float4, SurfaceBytes: float4Quantum, Surfaces: 2, Rounds: r, Batch: 1}
			ps.add(spec, p, float64(r), lambdaOf)
		}
	}
	return core.FigureSpec{Fig: fig, Points: ps.pts}, ps.err
}

// StrideResonanceSpec plans hier-stride: for each candidate way count w,
// w+1 quanta strided L1-capacity/w apart — all aliasing the same sets.
// The curve steps from the hot band to the miss band exactly at the
// card's true associativity.
func StrideResonanceSpec(s *core.Suite) (core.FigureSpec, error) {
	fig := &report.Figure{
		Title:  "Stride resonance: conflict set vs candidate ways (float)",
		XLabel: "candidate ways", YLabel: "cycles/fetch",
	}
	ps := &pointSink{s: s, seals: map[Probe]*il.Sealed{}}
	for _, spec := range device.All() {
		for _, w := range strideWaysGrid {
			gap := spec.L1CacheBytes / w
			if gap < floatQuantum || gap%floatQuantum != 0 {
				continue
			}
			p := Probe{Type: il.Float, SurfaceBytes: gap, Surfaces: w + 1, Rounds: l1Rounds, Batch: 1}
			ps.add(spec, p, float64(w), lambdaOf)
		}
	}
	return core.FigureSpec{Fig: fig, Points: ps.pts}, ps.err
}

// InferArch runs the full inference against a built-in card through the
// suite's pipeline and diffs it against the device table. It returns
// the recovered model and the mismatches (empty = proof of agreement).
func InferArch(s *core.Suite, arch device.Arch, cfg Config) (Inferred, []Mismatch, error) {
	spec := device.Lookup(arch)
	inf, err := Infer(SuiteMeasurer(s, spec), cfg)
	if err != nil {
		return inf, nil, fmt.Errorf("inferring %s: %w", arch.CardName(), err)
	}
	return inf, inf.Diff(spec), nil
}
