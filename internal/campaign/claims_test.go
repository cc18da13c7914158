package campaign

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/report"
)

const (
	claimsBegin = "<!-- claims:begin (generated: go test ./internal/campaign -run TestClaims -update-goldens) -->\n"
	claimsEnd   = "<!-- claims:end -->\n"
)

// TestClaims runs the claims table on the paper's configuration (the
// default suite, as `amdmb summary` does), asserts every row's bound,
// and pins the rendered table byte for byte in EXPERIMENTS.md's marked
// block. Re-pin a deliberate change with
// `go test ./internal/campaign -run TestClaims -update-goldens`.
func TestClaims(t *testing.T) {
	for i, c := range Claims {
		if slices.ContainsFunc(Claims[:i], func(d Claim) bool { return d.Metric == c.Metric }) {
			t.Errorf("metric id %q declared twice", c.Metric)
		}
	}
	ms, err := Measure(core.NewSuite(), Figures{}, Claims)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if !m.Holds() {
			t.Errorf("%s %s: measured %v, want inside (%v, %v)", m.Figs[0], m.Metric, m.Got, m.Lo, m.Hi)
		}
	}
	block := "```\n" + ClaimsTable(ms).Format() + "```\n"
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok1 := strings.Cut(string(doc), claimsBegin)
	pinned, tail, ok2 := strings.Cut(rest, claimsEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s lacks the claims block markers", path)
	}
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(head+claimsBegin+block+claimsEnd+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if pinned != block {
		t.Errorf("claims table drifted from %s (re-pin with -update-goldens):\ngot:\n%swant:\n%s", path, block, pinned)
	}
}

// TestClaimRowsOnSyntheticFigures feeds table rows figures built to
// break them: each must either evaluate and fail to hold, or fail with
// the offending series named — never print a value read off the wrong
// data.
func TestClaimRowsOnSyntheticFigures(t *testing.T) {
	series := func(label string, pts ...report.Point) report.Series { return report.Series{Label: label, Points: pts} }
	flat := series("3870 Pixel Float", report.Point{X: 64, Y: 10}, report.Point{X: 64, Y: 10})
	varying := series("4870 Pixel Float", report.Point{X: 64, Y: 10}, report.Point{X: 64, Y: 11})
	cases := []struct {
		metric  string
		figs    Figures
		wantErr string // "" = evaluates, but must not hold
	}{
		// Only the second card's control curve varies: every card's
		// series is bounded, not just the first one's.
		{"control-spread", Figures{"clausectl": {Series: []report.Series{flat, varying}}}, ""},
		// A renamed or dropped series fails with its label.
		{"crossover-4870-float4", Figures{"fig7": {Series: []report.Series{flat, varying}}}, `"4870 Pixel Float4"`},
		// A failed 8x8 launch leaves a gap at x=3; the row must not read
		// the next point in its place.
		{"64x1/8x8-speedup", Figures{"blocks": {Series: []report.Series{series("4870 Compute Float",
			report.Point{X: 0, Y: 10}, report.Point{X: 1, Y: 6}, report.Point{X: 2, Y: 5}, report.Point{X: 4, Y: 4})}}}, "no point at x=3"},
	}
	for _, tc := range cases {
		i := slices.IndexFunc(Claims, func(c Claim) bool { return c.Metric == tc.metric })
		if i < 0 {
			t.Fatalf("no claim row %q", tc.metric)
		}
		// Every figure the row reads is given, so no suite is needed.
		ms, err := Measure(nil, tc.figs, Claims[i:i+1])
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %s", tc.metric, err, tc.wantErr)
			}
		} else if err != nil {
			t.Errorf("%s: %v", tc.metric, err)
		} else if ms[0].Holds() {
			t.Errorf("%s: measured %v holds on a figure built to break it", tc.metric, ms[0].Got)
		}
	}
}
