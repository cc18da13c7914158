package campaign

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/report"
)

// testSuite mirrors the CLI's fast-test configuration: one timing
// iteration and the artifact caches off, so every launch in these tests
// computes unless a test turns the caches back on.
func testSuite() *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.DisableArtifactCache = true
	return s
}

func mustSpecs(t *testing.T, s *core.Suite, names ...string) []Spec {
	t.Helper()
	specs, err := Specs(s, names)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// runFigure runs one figure alone on s, as a one-figure campaign
// clamped to maxDomain.
func runFigure(t *testing.T, s *core.Suite, maxDomain int, name string) *report.Figure {
	t.Helper()
	res, err := mustPlan(t, s, Options{MaxDomain: maxDomain}, name).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res.Figures[0]
}

func mustPlan(t *testing.T, s *core.Suite, opts Options, names ...string) *Plan {
	t.Helper()
	p, err := NewPlan(mustSpecs(t, s, names...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanInvariants checks the structural soundness of a plan on the
// flagship bundle: the units are every spec's points, spec by spec in
// figure order, with domains clamped and nothing else rewritten.
func TestPlanInvariants(t *testing.T) {
	const clamp = 64
	s := testSuite()
	p := mustPlan(t, s, Options{MaxDomain: clamp}, "fig7", "fig8", "fig11", "fig16")

	ui := 0
	for si, sp := range p.Specs {
		for pi, pt := range sp.Figure.Points {
			if ui >= len(p.Units) {
				t.Fatalf("plan ends before spec %d point %d", si, pi)
			}
			u := p.Units[ui]
			if u.K != pt.K || u.Card != pt.Card || u.X != pt.X {
				t.Fatalf("unit %d is not spec %d point %d", ui, si, pi)
			}
			if u.W != min(pt.W, clamp) || u.H != min(pt.H, clamp) {
				t.Fatalf("unit %d domain %dx%d, point %dx%d clamped to %d", ui, u.W, u.H, pt.W, pt.H, clamp)
			}
			ui++
		}
	}
	if ui != len(p.Units) {
		t.Fatalf("%d units for %d points", len(p.Units), ui)
	}
}

// TestCompileSharingIsThePipelineStores pins where cross-figure sharing
// below the launch shows up: fig8's kernels are fig7's compute kernels,
// so running both on one cached suite hits the compiled programs on
// their shared seals more often than running each on its own suite.
func TestCompileSharingIsThePipelineStores(t *testing.T) {
	hits := func(names ...string) int64 {
		s := testSuite()
		s.DisableArtifactCache = false
		if _, err := mustPlan(t, s, Options{MaxDomain: 16}, names...).Run(s); err != nil {
			t.Fatal(err)
		}
		return s.Metrics().Snapshot().Get("pipeline.compile.hits")
	}
	both, fig7, fig8 := hits("fig7", "fig8"), hits("fig7"), hits("fig8")
	if both <= fig7+fig8 {
		t.Fatalf("compile hits: fig7+fig8 together %d, apart %d+%d; want cross-figure hits", both, fig7, fig8)
	}
}

// TestSimulateStoreIsTheDedup pins where whole-launch sharing goes: the
// one registry pair that shares launches, fig16 and clausectl (both
// start at step 0, where the control variant's clause reordering is a
// no-op and the kernels hash identically), run as one campaign on one
// cached suite. Each of the 150 distinct launches is simulated once,
// and each distinct kernel compiled once; the 10 shared launches reach
// the store a second time as a hit or a coalesced wait. The figures match separate fresh-suite runs.
func TestSimulateStoreIsTheDedup(t *testing.T) {
	const clamp = 64
	s := testSuite()
	s.DisableArtifactCache = false
	p := mustPlan(t, s, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d units failed", res.Failed())
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("pipeline.simulate.misses"); got != 150 {
		t.Errorf("pipeline.simulate.misses = %d, want 150 distinct launches", got)
	}
	if got := snap.Get("pipeline.simulate.hits") + snap.Get("pipeline.simulate.coalesced"); got != 10 {
		t.Errorf("simulate hits+coalesced = %d, want the 10 shared launches", got)
	}
	// Each figure sweeps 8 steps of 4 kernels (pixel and compute, float
	// and float4): 64 kernels, of which the 4 at step 0 are shared, so 60
	// distinct. All three cards have one compiler target, so each kernel
	// compiles once, whichever cards launch it.
	if got := snap.Get("pipeline.compile.misses"); got != 60 {
		t.Errorf("pipeline.compile.misses = %d, want 60 distinct kernels", got)
	}
	for i, name := range []string{"fig16", "clausectl"} {
		if got, want := res.Figures[i].CSV(), runFigure(t, testSuite(), clamp, name).CSV(); got != want {
			t.Errorf("%s diverged from a fresh-suite run:\ncampaign:\n%s\nalone:\n%s", name, got, want)
		}
	}
}

// TestPlanDeterministic replans the same bundle on fresh suites and
// demands an identical rendered schedule — the property sharding stands
// on: shard processes partition units by scheduled index, so every one
// of them must plan the same order.
func TestPlanDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		RenderPlan(&b, mustPlan(t, testSuite(), Options{}, "fig16", "clausectl", "fig11"))
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("replanning the same specs produced a different schedule")
	}
}

// TestPlanMaxDomainClamp clamps a domain-size sweep at plan time: every
// unit respects the cap, and every original point still gets its run.
func TestPlanMaxDomainClamp(t *testing.T) {
	s := testSuite()
	p := mustPlan(t, s, Options{MaxDomain: 8}, "fig15a")
	for _, u := range p.Units {
		if u.W > 8 || u.H > 8 {
			t.Fatalf("unit domain %dx%d exceeds clamp", u.W, u.H)
		}
	}
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Runs[0]), len(p.Specs[0].Figure.Points); got != want {
		t.Fatalf("campaign served %d of %d points", got, want)
	}
}

// TestPlanClampSparesHierProbes plans every registry figure at a small
// clamp: a hierarchy probe's domain is its measurement (the stride
// probes encode the stride in the surface width), so every hier-* point
// keeps its unclamped W and H, while every other point fits the clamp.
func TestPlanClampSparesHierProbes(t *testing.T) {
	const clamp = 16
	specs := mustSpecs(t, testSuite(), FigureNames()...)
	p, err := NewPlan(specs, Options{MaxDomain: clamp})
	if err != nil {
		t.Fatal(err)
	}
	i, wide := 0, 0
	for _, sp := range specs {
		hierFig := strings.HasPrefix(sp.Name, "hier-")
		for pi, pt := range sp.Figure.Points {
			u := p.Units[i]
			i++
			switch {
			case hierFig && (u.W != pt.W || u.H != pt.H):
				t.Errorf("%s point %d: planned %dx%d, want its unclamped %dx%d", sp.Name, pi, u.W, u.H, pt.W, pt.H)
			case !hierFig && (u.W > clamp || u.H > clamp):
				t.Errorf("%s point %d: planned %dx%d exceeds the clamp %d", sp.Name, pi, u.W, u.H, clamp)
			}
			if hierFig && max(pt.W, pt.H) > clamp {
				wide++
			}
		}
	}
	if i != len(p.Units) {
		t.Fatalf("plan has %d units, specs %d points", len(p.Units), i)
	}
	if wide == 0 {
		t.Fatalf("no hier-* point exceeds the clamp %d; the test checks nothing", clamp)
	}
}

// TestCampaignMatchesSequential is the headline correctness property:
// scheduling fig16+clausectl as one campaign yields figures
// bit-identical to running each alone, with the artifact caches off so
// nothing can hide behind cache hits.
func TestCampaignMatchesSequential(t *testing.T) {
	const clamp = 64
	s := testSuite()
	p := mustPlan(t, s, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d units failed", res.Failed())
	}

	direct16 := runFigure(t, testSuite(), clamp, "fig16")
	directCtl := runFigure(t, testSuite(), clamp, "clausectl")
	if got, want := res.Figures[0].CSV(), direct16.CSV(); got != want {
		t.Errorf("fig16 diverged from sequential run:\ncampaign:\n%s\nsequential:\n%s", got, want)
	}
	if got, want := res.Figures[1].CSV(), directCtl.CSV(); got != want {
		t.Errorf("clausectl diverged from sequential run:\ncampaign:\n%s\nsequential:\n%s", got, want)
	}
	if res.Executed != len(p.Units) {
		t.Fatalf("executed %d of %d units", res.Executed, len(p.Units))
	}
}

// TestCampaignCounters checks the campaign.* metric family against the
// plan, and the run's own accounting against the sweep's counters.
func TestCampaignCounters(t *testing.T) {
	s := testSuite()
	p := mustPlan(t, s, Options{MaxDomain: 32}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	want := map[string]int64{
		"campaign.figures.planned":    2,
		"campaign.units.planned":      160,
		"core.sweep.points.completed": int64(res.Executed - res.Failed()),
		"core.sweep.points.failed":    int64(res.Failed()),
	}
	for name, val := range want {
		if got := snap.Get(name); got != val {
			t.Errorf("%s = %d, want %d", name, got, val)
		}
	}
	if res.Executed != 160 {
		t.Errorf("executed %d units, want 160", res.Executed)
	}
}

func TestRunCtxRejectsBadShard(t *testing.T) {
	s := testSuite()
	p := mustPlan(t, s, Options{MaxDomain: 16}, "fig16")
	for _, o := range []RunOptions{{Shard: 2, Shards: 2}, {Shard: -1, Shards: 2}, {Shard: 1}} {
		if _, err := p.RunCtx(context.Background(), s, o); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("shard %d/%d: err = %v, want out of range", o.Shard, o.Shards, err)
		}
	}
}

// TestRunCtxShardsPartitionUnits runs every shard of a plan on its own
// suite: each shard launches exactly its interleaved share of the units,
// assembles no figures, and the shards together launch every unit once.
func TestRunCtxShardsPartitionUnits(t *testing.T) {
	const shards = 3
	type launch struct {
		kernel [32]byte
		card   core.Card
		x      float64
	}
	key := func(p core.KernelPoint) launch { return launch{p.K.ID(), p.Card, p.X} }
	plan := mustPlan(t, testSuite(), Options{MaxDomain: 16}, "fig16", "clausectl")
	launched := map[launch]int{}
	for shard := range shards {
		s := testSuite()
		var mu sync.Mutex
		s.BeforeLaunch = func(p core.KernelPoint, _ int) {
			mu.Lock()
			launched[key(p)]++
			mu.Unlock()
		}
		res, err := plan.RunCtx(context.Background(), s, RunOptions{Shard: shard, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		share := 0
		for i := range plan.Units {
			if i%shards == shard {
				share++
			}
		}
		if res.Executed != share {
			t.Errorf("shard %d/%d executed %d units, want %d", shard, shards, res.Executed, share)
		}
		if res.Figures != nil {
			t.Errorf("shard %d/%d assembled %d figures, want none", shard, shards, len(res.Figures))
		}
	}
	want := map[launch]int{}
	for _, u := range plan.Units {
		want[key(u)]++
	}
	if !maps.Equal(launched, want) {
		t.Errorf("shards launched %d distinct units, want the plan's %d", len(launched), len(want))
	}
}

// TestRunCtxReportsFailures hangs every writelat_o3 and writelat_o4
// kernel (units of both parities, so each of two shards has failures):
// the run's Failures must be exactly the executed units that failed, in
// unit order, both unsharded and in each shard, which assembles no
// figures.
func TestRunCtxReportsFailures(t *testing.T) {
	faulted := func() *core.Suite {
		s := testSuite()
		s.DeadlineCycles = 1 << 20
		s.Faults = &fault.Plan{Specs: []fault.Spec{
			{Kind: fault.Hang, Prob: 1, Match: "writelat_o3", Clause: -1},
			{Kind: fault.Hang, Prob: 1, Match: "writelat_o4", Clause: -1},
		}}
		return s
	}
	plan := mustPlan(t, testSuite(), Options{MaxDomain: 16}, "fig13", "fig14")
	for _, o := range []RunOptions{{}, {Shard: 0, Shards: 2}, {Shard: 1, Shards: 2}} {
		shards := max(o.Shards, 1)
		var want []string
		for i, u := range plan.Units {
			if i%shards == o.Shard && (u.K.Name == "writelat_o3" || u.K.Name == "writelat_o4") {
				want = append(want, fmt.Sprintf("%s x=%g", u.Card.Label(), u.X))
			}
		}
		res, err := plan.RunCtx(context.Background(), faulted(), o)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res.Failures {
			if !r.Failed() {
				t.Errorf("shard %d/%d: Failures holds a completed run %+v", o.Shard, shards, r)
			}
			got = append(got, fmt.Sprintf("%s x=%g", r.Card.Label(), r.X))
		}
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("shard %d/%d: failures %q, want %q", o.Shard, shards, got, want)
		}
		if res.Failed() != len(res.Failures) {
			t.Errorf("shard %d/%d: Failed() = %d with %d failure records", o.Shard, shards, res.Failed(), len(res.Failures))
		}
		if sharded := shards > 1; sharded != (res.Figures == nil) {
			t.Errorf("shard %d/%d: assembled %d figures", o.Shard, shards, len(res.Figures))
		}
	}
}

// TestCampaignCheckpointResume kills a campaign mid-flight and resumes
// it on a fresh suite over the same persistent cache dir: the resumed
// invocation must serve the units the victim finished from disk and
// still produce sequential-identical figures.
func TestCampaignCheckpointResume(t *testing.T) {
	const clamp = 64
	dir := t.TempDir()
	persisted := func() *core.Suite {
		s := testSuite()
		s.DisableArtifactCache = false
		s.PersistDir = dir
		return s
	}

	victim := persisted()
	victim.Workers = 2
	ctx := cancelAfter(t, victim, 6)
	vp := mustPlan(t, victim, Options{MaxDomain: clamp}, "fig16", "clausectl")
	if _, err := vp.RunCtx(ctx, victim, RunOptions{}); !errors.Is(err, core.ErrSweepInterrupted) {
		t.Fatalf("victim campaign: got %v, want ErrSweepInterrupted", err)
	}

	resumed := persisted()
	rp := mustPlan(t, resumed, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := rp.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if hits := resumed.Metrics().Snapshot().Get("pipeline.persist.hits"); hits == 0 {
		t.Fatal("resume served nothing from the persistent tier")
	}

	direct16 := runFigure(t, testSuite(), clamp, "fig16")
	directCtl := runFigure(t, testSuite(), clamp, "clausectl")
	if res.Figures[0].CSV() != direct16.CSV() {
		t.Error("resumed campaign fig16 diverged from sequential run")
	}
	if res.Figures[1].CSV() != directCtl.CSV() {
		t.Error("resumed campaign clausectl diverged from sequential run")
	}
}

// cancelAfter arms BeforeLaunch to cancel the returned context once the
// suite has started its nth launch.
func cancelAfter(t *testing.T, s *core.Suite, n int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var launches atomic.Int64
	s.BeforeLaunch = func(core.KernelPoint, int) {
		if launches.Add(1) == n {
			cancel()
		}
	}
	return ctx
}

// TestCampaignInterruptPropagates pins the error identity contract.
func TestCampaignInterruptPropagates(t *testing.T) {
	s := testSuite()
	s.Workers = 1
	ctx := cancelAfter(t, s, 2)
	p := mustPlan(t, s, Options{MaxDomain: 32}, "fig16")
	_, err := p.RunCtx(ctx, s, RunOptions{})
	if !errors.Is(err, core.ErrSweepInterrupted) {
		t.Fatalf("got %v, want core.ErrSweepInterrupted", err)
	}
}

// TestSpecsRejectsBadNames pins the registry's error behavior.
func TestSpecsRejectsBadNames(t *testing.T) {
	s := testSuite()
	if _, err := Specs(s, []string{"fig99"}); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("unknown name: got %v", err)
	}
	if _, err := Specs(s, []string{"fig7", "fig7"}); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate name: got %v", err)
	}
}

// TestResolve pins the one figure-request parser: names are trimmed and
// case-folded, globs expand, an arch filter keeps only its series, and
// exactly the caller's mistakes are RequestErrors.
func TestResolve(t *testing.T) {
	s := testSuite()
	specs, err := Resolve(s, []string{" FIG7 ", "", "hier-l*"}, []string{"4870", " "})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range specs {
		names = append(names, sp.Name)
		for _, pt := range sp.Figure.Points {
			if pt.Card.Arch != device.RV770 {
				t.Fatalf("%s kept a %v point through a 4870 filter", sp.Name, pt.Card.Arch)
			}
		}
	}
	if got := strings.Join(names, ","); got != "fig7,hier-lat,hier-line" {
		t.Fatalf("resolved %s", got)
	}

	for _, tc := range []struct {
		figs, archs []string
		bad         bool
		want        string
	}{
		{[]string{" ", ""}, nil, true, "no figures"},
		{[]string{"fig99"}, nil, true, "unknown figure"},
		{[]string{"nope*"}, nil, true, "matches no figure"},
		{[]string{"fig7"}, []string{"vega"}, true, "unknown arch"},
		{[]string{"trans"}, []string{"5870"}, true, "no points"},
		{[]string{"fig7", "fig7"}, nil, false, "listed twice"},
	} {
		_, err := Resolve(s, tc.figs, tc.archs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%q, %q) = %v, want %q", tc.figs, tc.archs, err, tc.want)
			continue
		}
		if bad := errors.As(err, new(*RequestError)); bad != tc.bad {
			t.Errorf("Resolve(%q, %q): RequestError %v, want %v", tc.figs, tc.archs, bad, tc.bad)
		}
	}
}

// TestFigureNamesCoverRegistry keeps the advertised name list in sync.
func TestFigureNamesCoverRegistry(t *testing.T) {
	names := FigureNames()
	if len(names) != len(registry) {
		t.Fatalf("FigureNames lists %d of %d registry rows", len(names), len(registry))
	}
	s := testSuite()
	for _, n := range names {
		if _, err := Specs(s, []string{n}); err != nil {
			t.Errorf("registry name %q does not plan: %v", n, err)
		}
	}
}
