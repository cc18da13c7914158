package core

import (
	"context"

	"amdgpubench/internal/report"
)

// A FigureSpec is a declaratively planned figure: the figure template,
// the exact sweep points that produce it, and how completed runs fold
// into the template's series. The parameterised builders on Suite
// (ALUFetchSpec, ReadLatencySpec, …) produce them; the campaign
// registry (internal/campaign) binds each paper figure to one builder
// configuration, and the campaign scheduler plans several specs as one
// set of deduplicated launch units. RunFigureSpec runs one alone.
type FigureSpec struct {
	// Fig is the figure template the spec's runs assemble into. It is
	// single-use: Finish appends series to it. Nil means the spec has no
	// figure (raw sweep points, e.g. a soak step).
	Fig *report.Figure
	// Points are the sweep points, in figure order. The order is part of
	// the spec: series assembly walks runs in point order.
	Points []KernelPoint
	// Finish assembles completed runs (point order, one per Points entry)
	// into Fig. Nil means AssembleSeries. It may re-key Run.X in place —
	// Fig. 16 replaces the step index with the compiled register count.
	Finish func(fig *report.Figure, runs []Run)
}

// FinishInto applies the spec's series assembly to completed runs.
func (sp FigureSpec) FinishInto(runs []Run) {
	if sp.Fig == nil {
		return
	}
	if sp.Finish != nil {
		sp.Finish(sp.Fig, runs)
		return
	}
	AssembleSeries(sp.Fig, runs)
}

// RunFigureSpec executes one spec directly — the degenerate single-spec
// campaign: every point through the resilient sweep runner, then series
// assembly. Multi-spec runs with cross-figure deduplication live in
// internal/campaign.
func (s *Suite) RunFigureSpec(spec FigureSpec) (*report.Figure, []Run, error) {
	runs, err := s.RunKernelPoints(context.Background(), spec.Points, SweepOptions{})
	if err != nil {
		return nil, nil, err
	}
	spec.FinishInto(runs)
	return spec.Fig, runs, nil
}

// AssembleSeries groups card-major ordered runs into one series per card:
// a new series starts whenever the card changes. Per-point failure
// records plot nothing — a detected failure must never fold into a
// curve as a bogus timing.
func AssembleSeries(fig *report.Figure, runs []Run) {
	var cur *report.Series
	started := false
	var last Card
	for _, r := range runs {
		if !started || r.Card != last {
			cur = fig.AddSeries(r.Card.Label())
			last = r.Card
			started = true
		}
		if r.Failed() {
			continue
		}
		cur.Add(r.X, r.Seconds)
	}
}
