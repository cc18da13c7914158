package campaign

import (
	"strings"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/pipeline"
)

// TestWarmRestartBuildsNothing replays a bundle on a fresh suite over a
// filled persist dir, as an amdmbd restart or an `amdmb -cache-dir`
// rerun does: every launch is a disk hit, so no kernel is generated,
// compiled or simulated, and the figures match the cold run's bytes.
func TestWarmRestartBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	figs := []string{"fig7", "fig8", "fig11", "fig16"}
	run := func() (string, *core.Suite) {
		t.Helper()
		s := core.NewSuite()
		s.Iterations = 1
		s.PersistDir = dir
		res, err := mustPlan(t, s, Options{MaxDomain: 64}, figs...).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		for _, f := range res.Figures {
			csv.WriteString(f.CSV())
		}
		return csv.String(), s
	}
	want, cold := run()
	if n := cold.Metrics().Snapshot().Get("pipeline.generate.misses"); n == 0 {
		t.Fatal("the cold run generated nothing; the check is vacuous")
	}
	got, warm := run()
	snap := warm.Metrics().Snapshot()
	for _, name := range []string{"pipeline.generate.misses", "pipeline.compile.misses", "pipeline.persist.misses"} {
		if n := snap.Get(name); n != 0 {
			t.Errorf("warm restart: %s = %d, want 0", name, n)
		}
	}
	if snap.Get("pipeline.persist.hits") == 0 {
		t.Error("warm restart served nothing from the persist tier")
	}
	if got != want {
		t.Errorf("warm restart figures differ from the cold run:\n%s\nvs\n%s", got, want)
	}
}

// TestBadParameterFailsAtPlan: generation is deferred to the first
// launch that needs the code, but a parameter the generator rejects
// still fails planning, with the generator's own error, before any
// launch.
func TestBadParameterFailsAtPlan(t *testing.T) {
	registry["onein"] = figure{build: func(s *core.Suite) (core.FigureSpec, error) {
		k, err := s.Pipeline().Generate(pipeline.GenReadLatency, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 1, Outputs: 1})
		if err != nil {
			return core.FigureSpec{}, err
		}
		card := core.Card{Mode: il.Pixel, Type: il.Float}
		return core.FigureSpec{Points: []core.KernelPoint{{Card: card, K: k, W: 16, H: 16}}}, nil
	}}
	t.Cleanup(func() { delete(registry, "onein") })

	s := testSuite()
	_, err := Specs(s, []string{"fig16", "onein"})
	const want = "campaign: planning onein: kerngen: need at least 2 inputs, got 1"
	if err == nil || err.Error() != want {
		t.Fatalf("Specs: error %v, want %q", err, want)
	}
	if n := s.KernelLaunches(); n != 0 {
		t.Errorf("%d launches before planning failed, want 0", n)
	}
	if n := s.Metrics().Snapshot().Get("pipeline.generate.misses"); n != 0 {
		t.Errorf("planning built %d kernels, want 0", n)
	}
}
