package main

// The summary experiment regenerates the headline quantities of every
// figure and prints them next to the paper's qualitative claims — a
// one-screen reproduction digest (the long-form record is EXPERIMENTS.md).

import (
	"fmt"
	"math"

	"amdgpubench/internal/core"
	"amdgpubench/internal/report"
)

func firstYOf(fig *report.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label && len(s.Points) > 0 {
			return s.Points[0].Y
		}
	}
	return math.NaN()
}

func lastYOf(fig *report.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return math.NaN()
}

func slopeOf(fig *report.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label {
			slope, _, _ := report.LinearFit(s)
			return slope
		}
	}
	return math.NaN()
}

func (c *cli) runSummary(s *core.Suite) error {
	t := &report.Table{
		Title:  "Reproduction summary: paper claim vs measured (simulated devices)",
		Header: []string{"experiment", "observable", "paper", "measured"},
	}
	add := func(exp, obs, paper, measured string) { t.AddRow(exp, obs, paper, measured) }

	fig7, _, err := runFigure(s, "fig7")
	if err != nil {
		return err
	}
	add("fig7", "4870 pixel float crossover", "~1.25", fmt.Sprintf("%.2f", core.CrossoverOf(fig7, "4870 Pixel Float")))
	add("fig7", "4870 pixel float4 crossover", "~5.0", fmt.Sprintf("%.2f", core.CrossoverOf(fig7, "4870 Pixel Float4")))
	add("fig7", "5870 float4 crossover later than 4870", "yes (~9)",
		fmt.Sprintf("%.2f vs %.2f", core.CrossoverOf(fig7, "5870 Pixel Float4"), core.CrossoverOf(fig7, "4870 Pixel Float4")))
	add("fig7", "compute 64x1 plateau / pixel plateau (4870 float)", ">1",
		fmt.Sprintf("%.2f", firstYOf(fig7, "4870 Compute Float")/firstYOf(fig7, "4870 Pixel Float")))

	fig8, _, err := runFigure(s, "fig8")
	if err != nil {
		return err
	}
	add("fig8", "4x16 speedup, 4870 compute float", "~3x",
		fmt.Sprintf("%.2fx", firstYOf(fig7, "4870 Compute Float")/firstYOf(fig8, "4870 Compute Float")))
	add("fig8", "4x16 speedup, 5870 compute float4", "~4x",
		fmt.Sprintf("%.2fx", firstYOf(fig7, "5870 Compute Float4")/firstYOf(fig8, "5870 Compute Float4")))

	fig11, _, err := runFigure(s, "fig11")
	if err != nil {
		return err
	}
	fig12, _, err := runFigure(s, "fig12")
	if err != nil {
		return err
	}
	add("fig11", "fetch latency linear in inputs", "yes",
		fmt.Sprintf("slope %.3f s/input (4870 float)", slopeOf(fig11, "4870 Pixel Float")))
	add("fig12", "3870 global read / texture fetch", "much slower",
		fmt.Sprintf("%.1fx", lastYOf(fig12, "3870 Pixel Float")/lastYOf(fig11, "3870 Pixel Float")))

	fig14, _, err := runFigure(s, "fig14")
	if err != nil {
		return err
	}
	add("fig14", "global write float4/float slope", "~4x",
		fmt.Sprintf("%.2fx", slopeOf(fig14, "4870 Pixel Float4")/slopeOf(fig14, "4870 Pixel Float")))

	fig16, _, err := runFigure(s, "fig16")
	if err != nil {
		return err
	}
	add("fig16", "register-pressure speedup, 4870 float", "~3.5x",
		fmt.Sprintf("%.2fx", firstYOf(fig16, "4870 Pixel Float")/lastYOf(fig16, "4870 Pixel Float")))
	add("fig16", "register-pressure speedup, 3870 float", "large",
		fmt.Sprintf("%.2fx", firstYOf(fig16, "3870 Pixel Float")/lastYOf(fig16, "3870 Pixel Float")))
	add("fig16", "5870 least affected", "yes",
		fmt.Sprintf("%.2fx", firstYOf(fig16, "5870 Pixel Float")/lastYOf(fig16, "5870 Pixel Float")))

	_, ctlRuns, err := runFigure(s, "clausectl")
	if err != nil {
		return err
	}
	ctlFlat := "yes"
	for _, r := range ctlRuns {
		if math.Abs(r.Seconds-ctlRuns[0].Seconds)/ctlRuns[0].Seconds > 0.02 && r.Card == ctlRuns[0].Card {
			ctlFlat = "NO"
		}
	}
	add("clausectl", "control kernel flat (constant time)", "yes", ctlFlat)

	fmt.Fprint(c.out, t.Format())
	return nil
}
