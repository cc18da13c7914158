package core

import "amdgpubench/internal/report"

// A FigureSpec is a declaratively planned figure: the figure template
// and the exact sweep points that produce it. Every point carries its
// own series label and plot mapping, so Assemble is the one rule that
// folds completed runs into any figure. The parameterised builders on
// Suite (ALUFetchSpec, ReadLatencySpec, …) produce them; the campaign
// registry (internal/campaign) binds each paper figure to one builder
// and the values that figure varies, and the campaign scheduler runs
// any set of specs, one or many, as one sweep.
type FigureSpec struct {
	// Fig is the figure template the spec's runs assemble into. It is
	// single-use: Assemble appends series to it. Nil means the spec has
	// no figure (raw sweep points, e.g. a soak step).
	Fig *report.Figure
	// Points are the sweep points, in figure order: a series spans a run
	// of consecutive points with the same series label.
	Points []KernelPoint
}

// Assemble folds completed runs (point order, one per Points entry) into
// Fig: a new series starts whenever the point's series label changes,
// and every completed run plots at its point's Plot coordinates. Per-
// point failure records plot nothing — a detected failure must never
// fold into a curve as a bogus timing. The plotted x is written back
// into Run.X, so a run reports the abscissa it was drawn at (Fig. 16's
// register count, not its step index).
func (sp FigureSpec) Assemble(runs []Run) {
	if sp.Fig == nil {
		return
	}
	var cur *report.Series
	var card Card // the card cardLabel was formatted for
	cardLabel := ""
	for i, p := range sp.Points {
		label := p.Series
		if label == "" {
			// Consecutive points share a card; format once per run.
			if cardLabel == "" || p.Card != card {
				card, cardLabel = p.Card, p.Card.Label()
			}
			label = cardLabel
		}
		if cur == nil || label != cur.Label {
			cur = sp.Fig.AddSeries(label)
		}
		r := &runs[i]
		if r.Failed() {
			continue
		}
		x, y := p.X, r.Seconds
		if p.Plot != nil {
			x, y = p.Plot(*r)
		}
		r.X = x
		cur.Add(x, y)
	}
}
