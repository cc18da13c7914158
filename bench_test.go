package amdgpubench_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper. Each benchmark regenerates its experiment end to end — kernel
// generation, IL->ISA compilation, cache trace replay, timing simulation —
// and reports, beyond Go's ns/op, the experiment's headline quantity as a
// custom metric (plateau seconds, crossover ratio, slope, speedup), so a
// `go test -bench .` run doubles as a reproduction summary.

import (
	"math"
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/report"
)

// newSuite uses the paper's 5000 kernel iterations (the default), so the
// reported custom metrics are on the same scale as the paper's figures.
// The iteration count only scales the simulated seconds, not the wall
// time of the benchmark itself.
func newSuite() *core.Suite {
	return core.NewSuite()
}

// runFigure runs one registry figure on s, the way `amdmb <fig>` does.
func runFigure(b *testing.B, s *core.Suite, name string) (*report.Figure, []core.Run) {
	b.Helper()
	specs, err := campaign.Specs(s, []string{name})
	if err != nil {
		b.Fatal(err)
	}
	fig, runs, err := s.RunFigureSpec(specs[0].Figure)
	if err != nil {
		b.Fatal(err)
	}
	return fig, runs
}

func firstY(fig *report.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label && len(s.Points) > 0 {
			return s.Points[0].Y
		}
	}
	return math.NaN()
}

func BenchmarkTable1HardwareQuery(b *testing.B) {
	s := newSuite()
	for i := 0; i < b.N; i++ {
		if tbl := s.HardwareTable(); len(tbl.Rows) != 3 {
			b.Fatal("Table I must list three GPUs")
		}
	}
}

func BenchmarkFig2Disassembly(b *testing.B) {
	spec := device.Lookup(device.RV770)
	k, err := kerngen.Generic(kerngen.Params{
		Mode: il.Pixel, Type: il.Float4, Inputs: 3, Outputs: 1, ALUOps: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ilc.Compile(k, spec)
		if err != nil {
			b.Fatal(err)
		}
		if p.GPRCount != 3 {
			b.Fatalf("Fig. 2 kernel GPRs = %d, want 3", p.GPRCount)
		}
	}
}

func BenchmarkFig7ALUFetch(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig7")
	}
	b.ReportMetric(core.CrossoverOf(fig, "4870 Pixel Float"), "crossover-4870-float")
	b.ReportMetric(core.CrossoverOf(fig, "4870 Pixel Float4"), "crossover-4870-float4")
}

// repeatedSweep is the artifact-cache workload: a fresh suite re-running
// one figure several times, the shape of iterating on a plot or sweeping
// a derived experiment. Cached vs uncached isolates the pipeline's
// memoization (generate/compile/replay/simulate artifacts reused within
// and across the repeats); the figures are bit-identical either way.
func repeatedSweep(b *testing.B, disableCache bool) {
	const repeats = 3
	var hitRate float64
	for i := 0; i < b.N; i++ {
		s := core.NewSuite()
		s.Iterations = 1
		s.DisableArtifactCache = disableCache
		for r := 0; r < repeats; r++ {
			runFigure(b, s, "fig7")
		}
		hitRate = s.Pipeline().HitRate()
	}
	// The cache hit rate is the quantity this benchmark pair isolates;
	// scripts/bench.sh records it into BENCH_<sha>.json alongside ns/op,
	// so cache-effectiveness regressions show up in the same artifact as
	// time regressions.
	b.ReportMetric(hitRate, "cache-hit-rate")
}

func BenchmarkFig7RepeatedSweepCached(b *testing.B)   { repeatedSweep(b, false) }
func BenchmarkFig7RepeatedSweepUncached(b *testing.B) { repeatedSweep(b, true) }

// incrementalSweep is the dense-sweep replay workload the prefix-snapshot
// store exists for: one trace family replayed at every input count from 1
// to 24 — the shape of Fig. 11's input sweep — through the pipeline's
// Replay stage. Cold (pipeline disabled) pays the full quadratic stream,
// replaying 1+2+...+24 = 300 input-units from scratch; Reuse resumes the
// family's snapshot at every point and replays only the 24 deltas. The
// figures are bit-identical either way (the cursor identity tests prove
// it); the ns/op gap is the incremental win, and the prefix-hit-rate
// metric lands in BENCH_<sha>.json so a snapshot-store regression shows
// up next to the time it costs.
func incrementalSweep(b *testing.B, disabled bool) {
	base := cache.TraceConfig{
		Spec:          device.Lookup(device.RV770),
		Order:         raster.PixelOrder(),
		W:             1024,
		H:             1024,
		ElemBytes:     4,
		ResidentWaves: 16,
	}
	const maxInputs = 24
	var hits, lookups int64
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pipeline.Options{Disabled: disabled})
		for n := 1; n <= maxInputs; n++ {
			tc := base
			tc.NumInputs = n
			if _, err := p.Replay(tc); err != nil {
				b.Fatal(err)
			}
		}
		snap := p.Metrics().Snapshot()
		hits += snap.Get("pipeline.replay-prefix.hits")
		lookups += snap.Get("pipeline.replay-prefix.hits") + snap.Get("pipeline.replay-prefix.misses")
	}
	if lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "prefix-hit-rate")
	}
}

func BenchmarkIncrementalSweepCold(b *testing.B)  { incrementalSweep(b, true) }
func BenchmarkIncrementalSweepReuse(b *testing.B) { incrementalSweep(b, false) }

func BenchmarkFig8ALUFetchBlock4x16(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig8")
	}
	b.ReportMetric(firstY(fig, "5870 Compute Float4"), "plateau-5870-float4-s")
}

func BenchmarkFig9GlobalReadStreamWrite(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig9")
	}
	b.ReportMetric(firstY(fig, "3870 Pixel Float"), "plateau-3870-float-s")
}

func BenchmarkFig10GlobalReadGlobalWrite(b *testing.B) {
	s := newSuite()
	for i := 0; i < b.N; i++ {
		runFigure(b, s, "fig10")
	}
}

func BenchmarkFig11TextureFetchLatency(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig11")
	}
	for _, sr := range fig.Series {
		if sr.Label == "4870 Pixel Float" {
			slope, _, _ := report.LinearFit(sr)
			b.ReportMetric(slope, "slope-4870-float-s/input")
		}
	}
}

func BenchmarkFig12GlobalReadLatency(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig12")
	}
	for _, sr := range fig.Series {
		if sr.Label == "3870 Pixel Float" {
			slope, _, _ := report.LinearFit(sr)
			b.ReportMetric(slope, "slope-3870-float-s/input")
		}
	}
}

func BenchmarkFig13StreamingStore(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig13")
	}
	for _, sr := range fig.Series {
		if sr.Label == "4870 Pixel Float" {
			slope, _, _ := report.LinearFit(sr)
			b.ReportMetric(slope, "slope-4870-float-s/output")
		}
	}
}

func BenchmarkFig14GlobalWrite(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig14")
	}
	var slopeF, slopeF4 float64
	for _, sr := range fig.Series {
		slope, _, _ := report.LinearFit(sr)
		switch sr.Label {
		case "4870 Pixel Float":
			slopeF = slope
		case "4870 Pixel Float4":
			slopeF4 = slope
		}
	}
	if slopeF > 0 {
		b.ReportMetric(slopeF4/slopeF, "float4/float-slope-ratio")
	}
}

func BenchmarkFig15DomainSize(b *testing.B) {
	s := newSuite()
	for i := 0; i < b.N; i++ {
		runFigure(b, s, "fig15a")
		runFigure(b, s, "fig15b")
	}
}

func BenchmarkFig16RegisterUsage(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "fig16")
	}
	for _, sr := range fig.Series {
		if sr.Label == "4870 Pixel Float" && len(sr.Points) > 1 {
			speedup := sr.Points[0].Y / sr.Points[len(sr.Points)-1].Y
			b.ReportMetric(speedup, "speedup-4870-float")
		}
	}
}

func BenchmarkFig17RegisterUsage4x16(b *testing.B) {
	s := newSuite()
	for i := 0; i < b.N; i++ {
		runFigure(b, s, "fig17")
	}
}

func BenchmarkClauseUsageControl(b *testing.B) {
	s := newSuite()
	for i := 0; i < b.N; i++ {
		if _, runs := runFigure(b, s, "clausectl"); len(runs) == 0 {
			b.Fatal("control produced no runs")
		}
	}
}

func BenchmarkExtTransThroughput(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "trans")
	}
	var add, rcp float64
	for _, sr := range fig.Series {
		n := len(sr.Points)
		switch sr.Label {
		case "4870 float4 add":
			add = sr.Points[n-1].Y
		case "4870 float4 rcp/rsq":
			rcp = sr.Points[n-1].Y
		}
	}
	if add > 0 {
		b.ReportMetric(rcp/add, "float4-trans/add-ratio")
	}
}

func BenchmarkExtBlockSizeSweep(b *testing.B) {
	s := newSuite()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig, _ = runFigure(b, s, "blocks")
	}
	for _, sr := range fig.Series {
		if sr.Label == "4870 Compute Float" {
			b.ReportMetric(sr.Points[0].Y/sr.Points[3].Y, "64x1/8x8-speedup")
		}
	}
}

func BenchmarkExtAblationStudy(b *testing.B) {
	s := newSuite()
	var res []core.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.AblationStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		if r.Name == "clause switching (latency hiding)" {
			b.ReportMetric(r.Ratio(), "latency-hiding-slowdown")
		}
	}
}

// The bundle pair quantifies what running the flagship
// fig7+fig8+fig11+fig16 bundle as one campaign buys. Sequential is what
// four separate amdmb invocations do — each figure on its own fresh
// suite, cold caches — while Campaign plans the same four figures on one
// suite. The bundle shares no whole launches, so the campaign's only
// saving is the pipeline stores': fig8's kernels are fig7's compute
// kernels under another block shape, so they compile once. The
// compile-hits metric is that sharing (pipeline.compile.hits); the
// ns/op gap between the two benchmarks is the realized saving.

func BenchmarkSequentialBundle(b *testing.B) {
	executed := 0
	for i := 0; i < b.N; i++ {
		executed = 0
		for _, name := range []string{"fig7", "fig8", "fig11", "fig16"} {
			_, runs := runFigure(b, newSuite(), name)
			executed += len(runs)
		}
	}
	b.ReportMetric(float64(executed), "points-executed")
}

func BenchmarkCampaignBundle(b *testing.B) {
	var (
		res  *campaign.Result
		hits int64
	)
	for i := 0; i < b.N; i++ {
		s := newSuite()
		specs, err := campaign.Specs(s, []string{"fig7", "fig8", "fig11", "fig16"})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := campaign.NewPlan(specs, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res, err = plan.Run(s); err != nil {
			b.Fatal(err)
		}
		if res.Failed() != 0 {
			b.Fatalf("%d units failed", res.Failed())
		}
		hits = s.Metrics().Snapshot().Get("pipeline.compile.hits")
	}
	if hits == 0 {
		b.Fatal("flagship bundle must share compiled kernels across figures")
	}
	b.ReportMetric(float64(hits), "compile-hits")
	b.ReportMetric(float64(res.Executed), "points-executed")
}

// BenchmarkHierInfer is the memory-hierarchy dissection end to end: the
// staged probe schedule against the RV770 model, recovering L1/L2
// capacity, line size, associativity and the miss-hit delta from
// measured curves alone. The benchmark fails outright if any recovered
// parameter disagrees with the device table, so a cache-model or
// timing-model regression cannot hide inside a "fast but wrong" run;
// the probe count lands in BENCH_<sha>.json as the schedule-size metric.
func BenchmarkHierInfer(b *testing.B) {
	spec := device.Lookup(device.RV770)
	probes := 0
	for i := 0; i < b.N; i++ {
		inf, err := hier.Infer(hier.SimMeasurer(spec, 100), hier.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if ms := inf.Diff(spec); len(ms) != 0 {
			b.Fatalf("inference diverged from the device model: %v", ms)
		}
		probes = inf.Probes
	}
	b.ReportMetric(float64(probes), "probes")
}

// BenchmarkHierLadderSweep runs the hier-lat campaign figure — the
// pointer-chase latency ladder over every device — through the full
// planned pipeline. Its largest points replay multi-thousand-slot fetch
// schedules, so this tracks the packed-arena replay cost the dissection
// added to the hot path.
func BenchmarkHierLadderSweep(b *testing.B) {
	points := 0
	for i := 0; i < b.N; i++ {
		s := newSuite()
		spec, err := hier.LatencyLadderSpec(s)
		if err != nil {
			b.Fatal(err)
		}
		_, runs, err := s.RunFigureSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			if r.Failed() {
				b.Fatalf("point %s x=%g failed: %s", r.Card.Label(), r.X, r.Err)
			}
		}
		points = len(runs)
	}
	b.ReportMetric(float64(points), "points-executed")
}
