package amdgpubench_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper. Each benchmark regenerates its experiment end to end — kernel
// generation, IL->ISA compilation, cache trace replay, timing simulation —
// and reports, beyond Go's ns/op, the claim rows filed under the figure
// (internal/campaign/claims.go) as custom metrics, so a `go test -bench .`
// run doubles as a reproduction summary.

import (
	"slices"
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

// runFigure runs one registry figure on s, the way `amdmb <fig>` does:
// as a one-figure campaign.
func runFigure(b *testing.B, s *core.Suite, name string) (*report.Figure, []core.Run) {
	b.Helper()
	specs, err := campaign.Specs(s, []string{name})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := campaign.NewPlan(specs, campaign.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := plan.Run(s)
	if err != nil {
		b.Fatal(err)
	}
	return res.Figures[0], res.Runs[0]
}

// benchFigures runs registry figures b.N times on one suite and reports
// the claim rows filed under them (internal/campaign/claims.go) as
// custom metrics; any other figure those rows read runs once, untimed.
func benchFigures(b *testing.B, names ...string) {
	s := newSuite()
	figs := campaign.Figures{}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			figs[name], _ = runFigure(b, s, name)
		}
	}
	b.StopTimer()
	var rows []campaign.Claim
	for _, c := range campaign.Claims {
		if slices.Contains(names, c.Figs[0]) {
			rows = append(rows, c)
		}
	}
	for _, name := range campaign.ClaimFigs(rows) {
		if figs[name] == nil {
			figs[name], _ = runFigure(b, s, name)
		}
	}
	ms, err := campaign.Measure(figs, rows)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range ms {
		b.ReportMetric(m.Got, m.Metric)
	}
}

func BenchmarkFig7ALUFetch(b *testing.B)               { benchFigures(b, "fig7") }
func BenchmarkFig8ALUFetchBlock4x16(b *testing.B)      { benchFigures(b, "fig8") }
func BenchmarkFig9GlobalReadStreamWrite(b *testing.B)  { benchFigures(b, "fig9") }
func BenchmarkFig10GlobalReadGlobalWrite(b *testing.B) { benchFigures(b, "fig10") }
func BenchmarkFig11TextureFetchLatency(b *testing.B)   { benchFigures(b, "fig11") }
func BenchmarkFig12GlobalReadLatency(b *testing.B)     { benchFigures(b, "fig12") }
func BenchmarkFig13StreamingStore(b *testing.B)        { benchFigures(b, "fig13") }
func BenchmarkFig14GlobalWrite(b *testing.B)           { benchFigures(b, "fig14") }
func BenchmarkFig15DomainSize(b *testing.B)            { benchFigures(b, "fig15a", "fig15b") }
func BenchmarkFig16RegisterUsage(b *testing.B)         { benchFigures(b, "fig16") }
func BenchmarkFig17RegisterUsage4x16(b *testing.B)     { benchFigures(b, "fig17") }
func BenchmarkClauseUsageControl(b *testing.B)         { benchFigures(b, "clausectl") }
func BenchmarkExtTransThroughput(b *testing.B)         { benchFigures(b, "trans") }
func BenchmarkExtBlockSizeSweep(b *testing.B)          { benchFigures(b, "blocks") }
func BenchmarkExtAblationStudy(b *testing.B)           { benchFigures(b, "ablate") }

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

// incrementalSweep is the dense-sweep replay workload: one trace family
// replayed at every input count from 1 to 24 — the shape of Fig. 11's
// input sweep — through the pipeline's Replay stage. Cold (pipeline
// disabled) computes every point; each identity-scheduled point replays
// one surface and scales it (cache.OneSurface), so Cold replays 24
// surfaces. Reuse stores the family once, at one input, and serves the
// other 23 points from that entry, so it replays one surface; it fails
// if a pipeline records more than one replay miss. The figures are
// bit-identical either way; the replay-hit-rate metric (from
// pipeline.replay.*) lands in BENCH_<sha>.json so a store regression
// shows up next to the time it costs.
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
		misses := snap.Get("pipeline.replay.misses")
		if !disabled && misses > 1 {
			b.Fatalf("a 1..%d input sweep of one family recorded %d replay misses, want 1", maxInputs, misses)
		}
		h := snap.Get("pipeline.replay.hits") + snap.Get("pipeline.replay.coalesced")
		hits += h
		lookups += h + misses
	}
	if lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "replay-hit-rate")
	}
}

func BenchmarkIncrementalSweepCold(b *testing.B)  { incrementalSweep(b, true) }
func BenchmarkIncrementalSweepReuse(b *testing.B) { incrementalSweep(b, false) }

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
// staged probe schedule against the RV770 model, measured through a
// fresh suite's sweep runner and pipeline each iteration, recovering
// L1/L2 capacity, line size, associativity and the miss-hit delta from
// measured curves alone. The benchmark fails outright if any recovered
// parameter disagrees with the device table, so a cache-model or
// timing-model regression cannot hide inside a "fast but wrong" run;
// the probe count lands in BENCH_<sha>.json as the schedule-size metric.
func BenchmarkHierInfer(b *testing.B) {
	spec := device.Lookup(device.RV770)
	probes := 0
	for i := 0; i < b.N; i++ {
		s := core.NewSuite()
		s.Iterations = 100
		inf, err := hier.Infer(hier.SuiteMeasurer(s, spec), hier.Config{})
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

// BenchmarkCompileChase isolates the compiler on the dissection's
// kernels, one feature per microbenchmark as DAMSEL (SNIPPETS.md #2)
// recommends. The RV770 probe schedule is recorded once, outside the
// timer, by running hier.Infer; each iteration then only compiles every
// probe kernel with ilc.CompileWith, so ns/op and allocs/op are ilc's
// alone.
func BenchmarkCompileChase(b *testing.B) {
	spec := device.Lookup(device.RV770)
	var kernels []*il.Kernel
	s := core.NewSuite()
	s.Iterations = 100
	measure := hier.SuiteMeasurer(s, spec)
	record := func(ps []hier.Probe) ([]float64, error) {
		for _, p := range ps {
			k, err := p.Kernel()
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, k)
		}
		return measure(ps)
	}
	if _, err := hier.Infer(record, hier.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			if _, err := ilc.CompileWith(k, spec, ilc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(kernels)), "kernels")
}

// BenchmarkHierLadderSweep runs the hier-lat campaign figure — the
// pointer-chase latency ladder over every device — through the full
// planned pipeline. Its largest points replay multi-thousand-slot fetch
// schedules, so this tracks the packed-arena replay cost the dissection
// added to the hot path.
func BenchmarkHierLadderSweep(b *testing.B) {
	points := 0
	for i := 0; i < b.N; i++ {
		_, runs := runFigure(b, newSuite(), "hier-lat")
		for _, r := range runs {
			if r.Failed() {
				b.Fatalf("point %s x=%g failed: %s", r.Card.Label(), r.X, r.Err)
			}
		}
		points = len(runs)
	}
	b.ReportMetric(float64(points), "points-executed")
}
