package campaign

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/report"
)

// testSuite mirrors the CLI's fast-test configuration: one timing
// iteration and the artifact caches off, so dedup wins in these tests
// come from the scheduler, never from a warm cache.
func testSuite(maxDomain int) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.MaxDomain = maxDomain
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

// runFigure runs one registry figure alone on s, the way `amdmb <fig>`
// does.
func runFigure(t *testing.T, s *core.Suite, name string) *report.Figure {
	t.Helper()
	fig, _, err := s.RunFigureSpec(mustSpecs(t, s, name)[0].Figure)
	if err != nil {
		t.Fatal(err)
	}
	return fig
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
// flagship bundle: every figure point is subscribed to exactly one unit,
// every unit ref points back at it, and the unit count is consistent
// with the dedup accounting.
func TestPlanInvariants(t *testing.T) {
	s := testSuite(0)
	p := mustPlan(t, s, Options{}, "fig7", "fig8", "fig11", "fig16")

	refs := 0
	for ui, u := range p.Units {
		if len(u.Refs) == 0 {
			t.Fatalf("unit %d has no subscribers", ui)
		}
		refs += len(u.Refs)
		for _, r := range u.Refs {
			if p.UnitOf(r.Spec, r.Point) != ui {
				t.Fatalf("unit %d ref %+v does not map back", ui, r)
			}
		}
	}
	if refs != p.Stats.Points {
		t.Fatalf("refs %d != points %d", refs, p.Stats.Points)
	}
	for si, sp := range p.Specs {
		for pi := range sp.Figure.Points {
			ui := p.UnitOf(si, pi)
			found := false
			for _, r := range p.Units[ui].Refs {
				if r.Spec == si && r.Point == pi {
					found = true
				}
			}
			if !found {
				t.Fatalf("point %d/%d not in unit %d refs", si, pi, ui)
			}
		}
	}
	if p.Stats.Units != len(p.Units) {
		t.Fatalf("stats units %d != units %d", p.Stats.Units, len(p.Units))
	}
	// The bundle shares no whole launches: fig8 runs fig7's compute
	// kernels under another block shape, a different launch. That
	// sharing is the pipeline compile store's, not the plan's (see
	// TestCompileSharingIsThePipelineStores).
	if p.Stats.Deduped != 0 {
		t.Fatalf("flagship bundle unexpectedly shares launches: %+v", p.Stats)
	}
}

// TestCompileSharingIsThePipelineStores pins where cross-figure sharing
// below the launch shows up: fig8's kernels are fig7's compute kernels,
// so running both on one cached suite hits the compile store more often
// than running each on its own suite.
func TestCompileSharingIsThePipelineStores(t *testing.T) {
	hits := func(names ...string) int64 {
		s := testSuite(16)
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

// TestPlanLaunchDedup pins the one pair in the default registry that
// shares whole launches: fig16 and clausectl both start at step 0, where
// the control variant's clause reordering is a no-op and the generated
// kernels hash identically.
func TestPlanLaunchDedup(t *testing.T) {
	s := testSuite(0)
	p := mustPlan(t, s, Options{}, "fig16", "clausectl")
	if p.Stats.Deduped == 0 {
		t.Fatalf("fig16+clausectl should share launch units: %+v", p.Stats)
	}
	if p.Stats.Units+p.Stats.Deduped != p.Stats.Points {
		t.Fatalf("launch accounting inconsistent: %+v", p.Stats)
	}
	shared := 0
	for _, u := range p.Units {
		if len(u.Refs) > 1 {
			shared++
			specs := map[int]bool{}
			for _, r := range u.Refs {
				specs[r.Spec] = true
			}
			if len(specs) != 2 {
				t.Fatalf("shared unit %+v not cross-figure", u.Refs)
			}
		}
	}
	if shared != p.Stats.Deduped {
		t.Fatalf("shared units %d != deduped %d", shared, p.Stats.Deduped)
	}
}

// TestPlanDeterministic replans the same bundle on fresh suites and
// demands an identical rendered schedule — the property sharding stands
// on: shard processes partition units by scheduled index, so every one
// of them must plan the same order.
func TestPlanDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		RenderPlan(&b, mustPlan(t, testSuite(0), Options{}, "fig16", "clausectl", "fig11"))
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("replanning the same specs produced a different schedule")
	}
}

// TestPlanMaxDomainClamp clamps a domain-size sweep at plan time: every
// unit respects the cap, collapsed points dedup within the figure, and
// fan-out still serves every original point.
func TestPlanMaxDomainClamp(t *testing.T) {
	s := testSuite(8)
	p := mustPlan(t, s, Options{MaxDomain: 8}, "fig15a")
	for _, u := range p.Units {
		if u.Point.W > 8 || u.Point.H > 8 {
			t.Fatalf("unit domain %dx%d exceeds clamp", u.Point.W, u.Point.H)
		}
	}
	if len(p.Units) >= p.Stats.Points {
		t.Fatalf("clamp should collapse domain points: %d units for %d points", len(p.Units), p.Stats.Points)
	}
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Runs[0]); got != p.Stats.Points {
		t.Fatalf("fan-out served %d of %d points", got, p.Stats.Points)
	}
}

// TestCampaignMatchesSequential is the headline correctness property:
// scheduling fig16+clausectl through the deduped plan yields figures
// bit-identical to running each alone, with the artifact caches off so
// nothing can hide behind cache hits.
func TestCampaignMatchesSequential(t *testing.T) {
	const clamp = 64
	s := testSuite(clamp)
	p := mustPlan(t, s, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d units failed", res.Failed())
	}

	direct16 := runFigure(t, testSuite(clamp), "fig16")
	directCtl := runFigure(t, testSuite(clamp), "clausectl")
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
// plan's own accounting.
func TestCampaignCounters(t *testing.T) {
	s := testSuite(32)
	p := mustPlan(t, s, Options{MaxDomain: 32}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	want := map[string]int64{
		"campaign.figures.planned": int64(p.Stats.Figures),
		"campaign.points.planned":  int64(p.Stats.Points),
		"campaign.points.deduped":  int64(p.Stats.Deduped),
		"campaign.points.fanout":   int64(p.Stats.Points),
		"campaign.units.planned":   int64(len(p.Units)),
		"campaign.units.executed":  int64(res.Executed),
		"campaign.units.completed": int64(res.Executed - res.Failed()),
		"campaign.units.failed":    int64(res.Failed()),
	}
	for name, val := range want {
		if got := snap.Get(name); got != val {
			t.Errorf("%s = %d, want %d", name, got, val)
		}
	}
	if snap.Get("campaign.points.deduped") == 0 {
		t.Error("fig16+clausectl campaign should report dedup")
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
		s := testSuite(clamp)
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

	direct16 := runFigure(t, testSuite(clamp), "fig16")
	directCtl := runFigure(t, testSuite(clamp), "clausectl")
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
	s := testSuite(32)
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
	s := testSuite(0)
	if _, err := Specs(s, []string{"fig99"}); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("unknown name: got %v", err)
	}
	if _, err := Specs(s, []string{"fig7", "fig7"}); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate name: got %v", err)
	}
}

// TestFigureNamesCoverRegistry keeps the advertised name list in sync.
func TestFigureNamesCoverRegistry(t *testing.T) {
	names := FigureNames()
	if len(names) != len(registry) {
		t.Fatalf("FigureNames lists %d of %d registry rows", len(names), len(registry))
	}
	s := testSuite(16)
	for _, n := range names {
		if _, err := Specs(s, []string{n}); err != nil {
			t.Errorf("registry name %q does not plan: %v", n, err)
		}
	}
}
