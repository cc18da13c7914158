package campaign

import (
	"fmt"
	"math"
	"slices"

	"amdgpubench/internal/report"
)

// The claims table is the one declaration of every paper-vs-measured
// claim: which registry figures a row reads, what it observes, the
// paper's value, and an open bound (Lo, Hi) on the measured value. The
// bound says when the reproduction stops supporting the claim — its
// direction or range ("later" is a ratio above 1, "flat" a spread below
// 2%) — not how close it lands to the paper's number: TestClaims pins
// every measured value exactly, through the rendered table in
// EXPERIMENTS.md, so a headline number that moves is re-pinned in the
// diff. `amdmb summary` prints the table; the per-figure benchmarks
// report its rows as metrics.

// Figures holds run figures by registry name.
type Figures map[string]*report.Figure

// Obs reads one observable off run figures.
type Obs func(Figures) (float64, error)

// Claim is one row of the claims table.
type Claim struct {
	Metric     string   // short metric id, e.g. "crossover-4870-float"
	Figs       []string // registry figures the row reads; it is filed under Figs[0]
	Observable string
	Paper      string
	Lo, Hi     float64 // the claim holds when Lo < value < Hi
	Value      Obs
	Format     string // renders the measured column from Show, or from Value when Show is nil
	Show       []Obs
}

var inf = math.Inf(1)

// Claims is the table, in the order `amdmb summary` prints it.
var Claims = func() []Claim {
	x4870f4 := crossover("fig7", "4870 Pixel Float4")
	x5870f4 := crossover("fig7", "5870 Pixel Float4")
	gain := func(label string) Obs { return ratio(first("fig16", label), last("fig16", label)) }
	speedup4x16 := func(label string) Obs { return ratio(first("fig7", label), first("fig8", label)) }
	slowdown := func(mechanism string) Obs { return ratio(at("ablate", mechanism, 1), at("ablate", mechanism, 0)) }
	return []Claim{
		{Metric: "crossover-4870-float", Figs: []string{"fig7"}, Observable: "4870 pixel float crossover", Paper: "~1.25",
			Lo: 0.625, Hi: 2.5, Value: crossover("fig7", "4870 Pixel Float"), Format: "%.2f"},
		{Metric: "crossover-4870-float4", Figs: []string{"fig7"}, Observable: "4870 pixel float4 crossover", Paper: "~5.0",
			Lo: 2.5, Hi: 10, Value: x4870f4, Format: "%.2f"},
		{Metric: "crossover-4870-float4/float", Figs: []string{"fig7"}, Observable: "4870 pixel float4 / float crossover", Paper: "~4x",
			Lo: 2, Hi: inf, Value: ratio(x4870f4, crossover("fig7", "4870 Pixel Float")), Format: "%.2fx"},
		{Metric: "crossover-5870/4870-float4", Figs: []string{"fig7"}, Observable: "5870 float4 crossover later than 4870", Paper: "yes (~9)",
			Lo: 1, Hi: inf, Value: ratio(x5870f4, x4870f4), Format: "%.2f vs %.2f", Show: []Obs{x5870f4, x4870f4}},
		{Metric: "compute/pixel-plateau-4870-float", Figs: []string{"fig7"}, Observable: "compute 64x1 plateau / pixel plateau (4870 float)", Paper: ">1",
			Lo: 1, Hi: inf, Value: ratio(first("fig7", "4870 Compute Float"), first("fig7", "4870 Pixel Float")), Format: "%.2f"},
		{Metric: "speedup-4x16-4870-float", Figs: []string{"fig8", "fig7"}, Observable: "4x16 speedup, 4870 compute float", Paper: "~3x",
			Lo: 1.25, Hi: inf, Value: speedup4x16("4870 Compute Float"), Format: "%.2fx"},
		{Metric: "speedup-4x16-5870-float4", Figs: []string{"fig8", "fig7"}, Observable: "4x16 speedup, 5870 compute float4", Paper: "~4x",
			Lo: 1.25, Hi: inf, Value: speedup4x16("5870 Compute Float4"), Format: "%.2fx"},
		{Metric: "slope-4870-float-s/input", Figs: []string{"fig11"}, Observable: "fetch latency linear in inputs", Paper: "yes",
			Lo: 0, Hi: inf, Value: slope("fig11", "4870 Pixel Float"), Format: "slope %.3g s/input (4870 float)"},
		{Metric: "float4(4)/float(16)-4870", Figs: []string{"fig11"}, Observable: "4 float4 inputs ~ 16 float inputs (4870 pixel)", Paper: "yes",
			Lo: 0.7, Hi: 1.5, Value: ratio(at("fig11", "4870 Pixel Float4", 4), at("fig11", "4870 Pixel Float", 16)), Format: "%.2f"},
		{Metric: "global/texture-3870-float", Figs: []string{"fig12", "fig11"}, Observable: "3870 global read / texture fetch", Paper: "much slower",
			Lo: 2, Hi: inf, Value: ratio(last("fig12", "3870 Pixel Float"), last("fig11", "3870 Pixel Float")), Format: "%.1fx"},
		{Metric: "global/64x1-texture-4870-float", Figs: []string{"fig12", "fig11"}, Observable: "4870 global read / 64x1 texture fetch (16 inputs)", Paper: "comparable",
			Lo: 0, Hi: 1.3, Value: ratio(at("fig12", "4870 Compute Float", 16), at("fig11", "4870 Compute Float", 16)), Format: "%.2fx"},
		{Metric: "global-compute/pixel-4870-float", Figs: []string{"fig12"}, Observable: "4870 global read compute / pixel (16 inputs)", Paper: "~1",
			Lo: 0.9, Hi: 1.1, Value: ratio(at("fig12", "4870 Compute Float", 16), at("fig12", "4870 Pixel Float", 16)), Format: "%.2f"},
		{Metric: "store-float4/float-4870", Figs: []string{"fig13"}, Observable: "4870 float4 / float streaming store (8 outputs)", Paper: "<4x",
			Lo: 0, Hi: 4, Value: ratio(at("fig13", "4870 Pixel Float4", 8), at("fig13", "4870 Pixel Float", 8)), Format: "%.2fx"},
		{Metric: "float4/float-slope-ratio", Figs: []string{"fig14"}, Observable: "global write float4/float slope", Paper: "~4x",
			Lo: 3, Hi: 5.5, Value: ratio(slope("fig14", "4870 Pixel Float4"), slope("fig14", "4870 Pixel Float")), Format: "%.2fx"},
		{Metric: "speedup-4870-float", Figs: []string{"fig16"}, Observable: "register-pressure speedup, 4870 float", Paper: "~3.5x",
			Lo: 1.5, Hi: inf, Value: gain("4870 Pixel Float"), Format: "%.2fx"},
		{Metric: "speedup-3870-float", Figs: []string{"fig16"}, Observable: "register-pressure speedup, 3870 float", Paper: "large",
			Lo: 1.5, Hi: inf, Value: gain("3870 Pixel Float"), Format: "%.2fx"},
		// Least affected: the 5870's gain stays below both the 3870's and
		// the 4870's; the bounded value is its ratio to the smaller one.
		{Metric: "speedup-5870/min-other-float", Figs: []string{"fig16"}, Observable: "5870 least affected", Paper: "yes",
			Lo: 0, Hi: 1, Value: ratio(gain("5870 Pixel Float"), minOf(gain("3870 Pixel Float"), gain("4870 Pixel Float"))),
			Format: "%.2fx", Show: []Obs{gain("5870 Pixel Float")}},
		{Metric: "control-spread", Figs: []string{"clausectl"}, Observable: "control kernel flat (constant time)", Paper: "yes",
			Lo: -inf, Hi: 0.02, Value: spread("clausectl"), Format: "max spread %.3f"},

		// Extensions beyond the paper's figures.
		{Metric: "float4-trans/add-ratio", Figs: []string{"trans"}, Observable: "4870 float4 rcp/rsq / add chain (one t core)", Paper: "(ext.) ~4x",
			Lo: 3, Hi: 5, Value: ratio(last("trans", "4870 float4 rcp/rsq"), last("trans", "4870 float4 add")), Format: "%.2fx"},
		{Metric: "64x1/8x8-speedup", Figs: []string{"blocks"}, Observable: "8x8 block speedup over 64x1 (4870 float)", Paper: "(ext.) >1",
			Lo: 1, Hi: inf, Value: ratio(at("blocks", "4870 Compute Float", 0), at("blocks", "4870 Compute Float", 3)), Format: "%.2fx"},
		{Metric: "single-wavefront-slowdown", Figs: []string{"ablate"}, Observable: "4870 slowdown, clause switching off", Paper: "(ext.) >2",
			Lo: 2, Hi: inf, Value: slowdown("clause switching (latency hiding)"), Format: "%.2fx"},
		{Metric: "no-burst-slowdown", Figs: []string{"ablate"}, Observable: "4870 slowdown, burst writes off", Paper: "(ext.) >1.5",
			Lo: 1.5, Hi: inf, Value: slowdown("burst writes"), Format: "%.2fx"},
		{Metric: "linear-texture-slowdown", Figs: []string{"ablate"}, Observable: "4870 slowdown, tiled textures off", Paper: "(ext.) >1",
			Lo: 1, Hi: inf, Value: slowdown("tiled texture layout"), Format: "%.2fx"},
	}
}()

// Measurement is one evaluated claim.
type Measurement struct {
	Claim
	Got      float64
	Measured string // the rendered measured column
}

// Holds reports whether the measured value lies inside the bound.
func (m Measurement) Holds() bool { return m.Lo < m.Got && m.Got < m.Hi }

// ClaimFigs lists the registry figures claims read, each once, in the
// order the rows first name them: the figures to plan for Measure.
func ClaimFigs(claims []Claim) []string {
	var names []string
	for _, c := range claims {
		for _, name := range c.Figs {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	return names
}

// Measure evaluates claims on run figures. Each row sees only the
// figures it declares; a row reading a figure figs lacks fails.
func Measure(figs Figures, claims []Claim) ([]Measurement, error) {
	ms := make([]Measurement, len(claims))
	for i, c := range claims {
		view := Figures{}
		for _, name := range c.Figs {
			view[name] = figs[name]
		}
		ms[i].Claim = c
		var shown []any
		for j, o := range append([]Obs{c.Value}, c.Show...) {
			v, err := o(view)
			if err != nil {
				return nil, fmt.Errorf("claim %s: %w", c.Metric, err)
			}
			if j == 0 {
				ms[i].Got = v
			}
			if j > 0 || c.Show == nil {
				shown = append(shown, v)
			}
		}
		ms[i].Measured = fmt.Sprintf(c.Format, shown...)
	}
	return ms, nil
}

// ClaimsTable renders measurements as the reproduction summary.
func ClaimsTable(ms []Measurement) *report.Table {
	t := &report.Table{
		Title:  "Reproduction summary: paper claim vs measured (simulated devices)",
		Header: []string{"experiment", "observable", "paper", "measured", "holds"},
	}
	for _, m := range ms {
		holds := "yes"
		if !m.Holds() {
			holds = "NO"
		}
		t.AddRow(m.Figs[0], m.Observable, m.Paper, m.Measured, holds)
	}
	return t
}

// The series accessors. Each one fails, naming the figure and label,
// when the series is missing or empty, so a renamed series breaks the
// row instead of reading NaN.

// read lifts a function of one labelled series into an Obs.
func read(fig, label string, f func(report.Series) (float64, error)) Obs {
	return func(figs Figures) (float64, error) {
		if figs[fig] == nil {
			return math.NaN(), fmt.Errorf("figure %s not run", fig)
		}
		for _, s := range figs[fig].Series {
			if s.Label == label && len(s.Points) > 0 {
				return f(s)
			}
		}
		return math.NaN(), fmt.Errorf("figure %s has no points in series %q", fig, label)
	}
}

// crossover is the series' first step up (report.Crossover, 10% band).
func crossover(fig, label string) Obs {
	return read(fig, label, func(s report.Series) (float64, error) { return report.Crossover(s, 0.10), nil })
}

func first(fig, label string) Obs {
	return read(fig, label, func(s report.Series) (float64, error) { return s.Points[0].Y, nil })
}

func last(fig, label string) Obs {
	return read(fig, label, func(s report.Series) (float64, error) { return s.Points[len(s.Points)-1].Y, nil })
}

// at is the series' Y at x; a missing point (a failed launch leaves a
// gap) is an error, never another point.
func at(fig, label string, x float64) Obs {
	return read(fig, label, func(s report.Series) (float64, error) {
		for _, p := range s.Points {
			if p.X == x {
				return p.Y, nil
			}
		}
		return math.NaN(), fmt.Errorf("figure %s series %q has no point at x=%g", fig, label, x)
	})
}

// slope is the series' least-squares slope.
func slope(fig, label string) Obs {
	return read(fig, label, func(s report.Series) (float64, error) {
		m, _, _ := report.LinearFit(s)
		return m, nil
	})
}

func ratio(num, den Obs) Obs { return combine(num, den, func(a, b float64) float64 { return a / b }) }

func minOf(a, b Obs) Obs { return combine(a, b, math.Min) }

func combine(a, b Obs, f func(a, b float64) float64) Obs {
	return func(figs Figures) (float64, error) {
		x, err := a(figs)
		if err != nil {
			return math.NaN(), err
		}
		y, err := b(figs)
		return f(x, y), err
	}
}

// spread is the largest relative departure of any point from its
// series' first point, over every series of the figure.
func spread(fig string) Obs {
	return func(figs Figures) (float64, error) {
		if figs[fig] == nil || len(figs[fig].Series) == 0 {
			return math.NaN(), fmt.Errorf("figure %s not run or has no series", fig)
		}
		worst := 0.0
		for _, s := range figs[fig].Series {
			for _, p := range s.Points {
				worst = math.Max(worst, math.Abs(p.Y-s.Points[0].Y)/s.Points[0].Y)
			}
		}
		return worst, nil
	}
}
