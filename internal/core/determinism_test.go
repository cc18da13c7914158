package core

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
)

// TestParallelSweepDeterministic proves the README's guarantee: the
// worker-pool sweep produces bit-identical figures at any worker count,
// because every point is an independent deterministic simulation.
func TestParallelSweepDeterministic(t *testing.T) {
	run := func(workers int) string {
		s := NewSuite()
		s.Iterations = 1
		s.Workers = workers
		fig, _, err := runOn(s)(keep(xAtMost(2))(s.ALUFetchSpec(ALUFetchConfig{
			Cards: []Card{
				{Arch: device.RV770, Mode: il.Pixel, Type: il.Float},
				{Arch: device.RV870, Mode: il.Compute, Type: il.Float4},
			},
		})))
		if err != nil {
			t.Fatal(err)
		}
		return fig.CSV()
	}
	serial := run(1)
	for _, w := range []int{2, 8, 16} {
		if got := run(w); got != serial {
			t.Fatalf("figure differs at %d workers:\n%s\nvs serial:\n%s", w, got, serial)
		}
	}
}

// TestCachedSweepBitIdenticalToUncached proves the pipeline's caching
// guarantee: a parallel sweep served from the shared artifact stores is
// bit-identical to a serial sweep that recomputes every stage from
// scratch. Cache hits change wall-clock time, never results.
func TestCachedSweepBitIdenticalToUncached(t *testing.T) {
	run := func(workers int, disableCache bool) string {
		s := NewSuite()
		s.Iterations = 1
		s.Workers = workers
		s.DisableArtifactCache = disableCache
		fig, _, err := runOn(s)(keep(xAtMost(2))(s.ALUFetchSpec(ALUFetchConfig{
			Cards: []Card{
				{Arch: device.RV770, Mode: il.Pixel, Type: il.Float},
				{Arch: device.RV870, Mode: il.Compute, Type: il.Float4},
			},
		})))
		if err != nil {
			t.Fatal(err)
		}
		return fig.CSV()
	}
	uncachedSerial := run(1, true)
	if got := run(8, false); got != uncachedSerial {
		t.Fatalf("cached 8-worker figure differs from uncached serial figure:\n%s\nvs:\n%s",
			got, uncachedSerial)
	}
}

// TestStructuralHashCacheBitIdenticalAcrossFigures extends the caching
// guarantee beyond the ALU:Fetch sweep to figures that exercise the other
// pipeline stage shapes — compute-mode block walks (Fig. 8), latency
// chains (Fig. 11) and register-pressure variants (Fig. 16). The compile
// store is keyed by the kernel's structural hash, not its assembled text;
// this is the end-to-end check that hash-keyed artifact reuse serves
// results byte-equal to recomputing every stage from scratch.
func TestStructuralHashCacheBitIdenticalAcrossFigures(t *testing.T) {
	figures := []struct {
		name string
		plan func(*Suite) (FigureSpec, error)
	}{
		{"fig8", func(s *Suite) (FigureSpec, error) {
			return s.ALUFetchSpec(ALUFetchConfig{Cards: ComputeCards(4, 16)})
		}},
		{"fig11", func(s *Suite) (FigureSpec, error) {
			return s.ReadLatencySpec(il.TextureSpace)
		}},
		{"fig16", func(s *Suite) (FigureSpec, error) {
			return s.RegisterUsageSpec(RegisterUsageConfig{Cards: StandardCards(0, 0)})
		}},
	}
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			render := func(disableCache bool) string {
				s := NewSuite()
				s.Iterations = 1
				s.DisableArtifactCache = disableCache
				fig, _, err := runOn(s)(f.plan(s))
				if err != nil {
					t.Fatal(err)
				}
				return fig.CSV()
			}
			cached := render(false)
			uncached := render(true)
			if cached != uncached {
				t.Errorf("hash-keyed cached figure differs from uncached:\n%s\nvs:\n%s",
					cached, uncached)
			}
		})
	}
}

// TestLaunchAccountingMatchesContexts cross-checks the suite's launch
// counter against the CAL layer's: every launch the suite issues goes
// through exactly one of its contexts, and every context counts into the
// pipeline registry's cal.launches, so the two must agree even with
// artifact caching collapsing the work behind those launches.
func TestLaunchAccountingMatchesContexts(t *testing.T) {
	s := suite()
	s.Workers = 4
	if _, _, err := runOn(s)(s.ALUFetchSpec(ALUFetchConfig{Cards: StandardCards(0, 0)})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runOn(s)(s.WriteLatencySpec(il.TextureSpace)); err != nil {
		t.Fatal(err)
	}
	fromContexts := s.Metrics().Snapshot().Get("cal.launches")
	if got := s.KernelLaunches(); got == 0 || got != fromContexts {
		t.Fatalf("suite counted %d launches, contexts counted %d", got, fromContexts)
	}
}

// TestSuiteRunsAreRepeatable re-runs one figure twice on one suite: the
// simulator holds no hidden state between launches.
func TestSuiteRunsAreRepeatable(t *testing.T) {
	s := suite()
	fig1, _, err := runOn(s)(s.WriteLatencySpec(il.TextureSpace))
	if err != nil {
		t.Fatal(err)
	}
	fig2, _, err := runOn(s)(s.WriteLatencySpec(il.TextureSpace))
	if err != nil {
		t.Fatal(err)
	}
	if fig1.CSV() != fig2.CSV() {
		t.Fatal("same suite produced different results on repeat")
	}
}
