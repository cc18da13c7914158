package core

import (
	"errors"
	"slices"
	"testing"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/report"
)

func TestTransThroughputShapes(t *testing.T) {
	s := suite()
	fig, _, err := runOn(s)(keep(func(p KernelPoint) bool { return p.X == 64 || p.X == 128 })(s.TransThroughputSpec()))
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string, x float64) float64 {
		return at(t, seriesByLabel(t, fig, label), x)
	}
	// Scalar transcendental chains cost the same as scalar add chains:
	// both retire one bundle per op.
	addF := get("4870 float add", 128)
	rcpF := get("4870 float rcp/rsq", 128)
	if addF != rcpF {
		t.Errorf("scalar trans chain (%v) != scalar add chain (%v)", rcpF, addF)
	}
	// Float4 transcendentals serialize through the single t core: about
	// 4x the float4 add chain.
	addF4 := get("4870 float4 add", 128)
	rcpF4 := get("4870 float4 rcp/rsq", 128)
	if ratio := rcpF4 / addF4; ratio < 3 || ratio > 5 {
		t.Errorf("float4 trans / add ratio = %v, want about 4", ratio)
	}
	// All series grow with chain length.
	for _, sr := range fig.Series {
		slope, _, _ := report.LinearFit(sr)
		if slope <= 0 {
			t.Errorf("%s: chain time does not grow", sr.Label)
		}
	}
}

func TestBlockSizeSweepShapes(t *testing.T) {
	s := suite()
	fig, runs, err := runOn(s)(s.BlockSizeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("block sweep has %d series, want 4", len(fig.Series))
	}
	// The square-ish shapes (8x8 at index 3, 4x16 at index 4) must beat
	// the paper's naive 64x1 (index 0) on every chip and type.
	for _, sr := range fig.Series {
		naive := at(t, sr, 0)
		square := at(t, sr, 3)
		if !(square < naive) {
			t.Errorf("%s: 8x8 block (%v) not below 64x1 (%v)", sr.Label, square, naive)
		}
	}
	// "One block size might not be best for all GPUs": the extreme 1x64
	// column walk hurts the long-line RV870 clearly (each thread touches
	// its own 128B line; the shared L2 absorbs part of the waste but the
	// L1 fill path still pays for every line).
	tall870 := at(t, seriesByLabel(t, fig, "5870 Compute Float"), 6)
	best870 := at(t, seriesByLabel(t, fig, "5870 Compute Float"), 3)
	if !(tall870 > 1.5*best870) {
		t.Errorf("5870 1x64 (%v) not well above its best (%v)", tall870, best870)
	}
	for _, r := range runs {
		if r.Seconds <= 0 {
			t.Fatalf("non-positive time in run %+v", r)
		}
	}
}

// TestFailedPointsNeverPlot panics one chosen point of each custom-label
// figure: the failure record must leave a gap in its series, never a
// plotted 0-second timing.
func TestFailedPointsNeverPlot(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(*Suite) (FigureSpec, error)
		perSeries int // points per series, in point order
		victim    int // index of the point whose launch panics
	}{
		{"trans", func(s *Suite) (FigureSpec, error) {
			return keep(xAtMost(64))(s.TransThroughputSpec())
		}, 2, 5},
		{"blocks", (*Suite).BlockSizeSpec, 7, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := quickSuite()
			spec, err := clampTo(64)(tc.build(s))
			if err != nil {
				t.Fatal(err)
			}
			v := spec.Points[tc.victim]
			s.BeforeLaunch = func(p KernelPoint, _ int) {
				if p.K == v.K && p.Card == v.Card && p.X == v.X {
					panic("injected test panic")
				}
			}
			fig, runs, err := runOn(s)(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !runs[tc.victim].Failed() {
				t.Fatalf("victim point did not fail: %+v", runs[tc.victim])
			}
			plotted := 0
			for _, sr := range fig.Series {
				plotted += len(sr.Points)
				for _, pt := range sr.Points {
					if pt.Y == 0 {
						t.Errorf("%s plots a 0-second timing at x=%g", sr.Label, pt.X)
					}
				}
			}
			if plotted != len(spec.Points)-1 {
				t.Errorf("plotted %d points, want %d", plotted, len(spec.Points)-1)
			}
			for _, pt := range fig.Series[tc.victim/tc.perSeries].Points {
				if pt.X == v.X {
					t.Errorf("failed point x=%g plotted in its series", v.X)
				}
			}
		})
	}
}

// ablationStudy runs the ablation figure as one sweep, as the campaign
// runs it for `amdmb ablate`, and folds its runs into the study's rows.
func ablationStudy(t *testing.T, s *Suite) []AblationResult {
	t.Helper()
	_, runs, err := runOn(s)(s.AblationSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblationResults(runs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAblationStudyDirections checks the compiler ablations' register
// traffic; the claims rows single-wavefront-slowdown, no-burst-slowdown
// and linear-texture-slowdown bound the simulated mechanisms' slowdowns.
func TestAblationStudyDirections(t *testing.T) {
	res := ablationStudy(t, suite())
	byName := map[string]AblationResult{}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		byName[r.Name] = r
	}
	// Removing clause temporaries floods the register file with writes.
	r := byName["clause temporaries"]
	if r.GPRWritesAblated <= 2*r.GPRWritesBase {
		t.Errorf("no-temps GPR writes %d not well above baseline %d",
			r.GPRWritesAblated, r.GPRWritesBase)
	}
	// The combined forwarding ablation is at least as write-heavy.
	all := byName["all forwarding (PV + temps)"]
	if all.GPRWritesAblated < r.GPRWritesAblated {
		t.Errorf("combined ablation writes (%d) below temps-only (%d)",
			all.GPRWritesAblated, r.GPRWritesAblated)
	}
	// The ablation table formats every row.
	tbl := AblationTable(res)
	if len(tbl.Rows) != len(res) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(res))
	}
}

// TestAblationStudyHonorsDeadline: the study's launches run under the
// suite's watchdog budget like every sweep point does, so a budget far
// below any reference kernel's runtime fails every row with a timeout,
// and the table shows each row as FAILED.
func TestAblationStudyHonorsDeadline(t *testing.T) {
	s := suite()
	s.Iterations = 1
	s.DeadlineCycles = 1000
	res := ablationStudy(t, s)
	for _, r := range res {
		if !errors.Is(r.Err, cal.ErrKernelTimeout) {
			t.Errorf("%s under a 1000-cycle budget: got %v, want cal.ErrKernelTimeout", r.Name, r.Err)
		}
	}
	for _, row := range AblationTable(res).Rows {
		if row[1] != "FAILED" || row[2] != "FAILED" || row[3] != "FAILED" {
			t.Errorf("failed row %q shows timings", row)
		}
	}
}

// TestAblationStudyLaunchesLikeASweepPoint: the study's points launch
// through the sweep runner like any figure's, so the suite counts its
// launches, cal counts the same number, and each is a traced launch span
// with its simulate stage nested inside.
func TestAblationStudyLaunchesLikeASweepPoint(t *testing.T) {
	s := NewSuite()
	s.Iterations = 1
	s.Tracer = obs.NewTracer()
	ablationStudy(t, s)
	const want = 12 // six mechanisms, each timed on and off
	var launches, simulates []obs.SpanInfo
	for _, sp := range s.Tracer.Snapshot() {
		switch sp.Name {
		case "launch":
			launches = append(launches, sp)
		case "simulate":
			simulates = append(simulates, sp)
		}
	}
	if got := s.KernelLaunches(); got != want {
		t.Errorf("KernelLaunches() = %d, want %d", got, want)
	}
	if got := s.Metrics().Snapshot().Get("cal.launches"); got != want {
		t.Errorf("cal.launches = %d, want %d", got, want)
	}
	if len(launches) != want {
		t.Errorf("%d launch spans, want %d", len(launches), want)
	}
	for _, l := range launches {
		if !slices.ContainsFunc(simulates, func(c obs.SpanInfo) bool {
			return c.TID == l.TID && c.StartUS >= l.StartUS && c.StartUS+c.DurUS <= l.StartUS+l.DurUS+1
		}) {
			t.Errorf("launch span %v at ts=%f has no simulate child", l.Args, l.StartUS)
		}
	}
}

func TestConstantsSweepFlat(t *testing.T) {
	s := suite()
	fig, runs, err := runOn(s)(s.ConstantsSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("constants sweep has %d series, want 2", len(fig.Series))
	}
	// Constants are free: time and register count are invariant in the
	// constant count, which is why the paper can hold it fixed while
	// sweeping everything else.
	for _, sr := range fig.Series {
		for _, p := range sr.Points {
			if p.Y != sr.Points[0].Y {
				t.Fatalf("%s: time varies with constants: %v", sr.Label, sr.Points)
			}
		}
	}
	first := map[Card]int{}
	for _, r := range runs {
		if g, ok := first[r.Card]; !ok {
			first[r.Card] = r.GPRs
		} else if r.GPRs != g {
			t.Fatalf("%s: GPRs vary with constants: %d vs %d", r.Card.Label(), r.GPRs, g)
		}
	}
}
