package core

import (
	"math"
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/report"
)

// These are the paper-shape integration tests: every figure is regenerated
// end to end (kernel generation -> compilation -> timing simulation) and
// the qualitative claims of Section IV are asserted against the curves.
// The headline claims `amdmb summary` prints are rows of the claims table
// (internal/campaign/claims.go) and are asserted there.

func TestFig7Shapes(t *testing.T) {
	s := suite()
	fig, runs, err := runOn(s)(s.ALUFetchSpec(ALUFetchConfig{Cards: StandardCards(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 10 {
		t.Fatalf("Fig. 7 has %d series, want 10", len(fig.Series))
	}

	crossover := func(label string) float64 { return report.Crossover(seriesByLabel(t, fig, label), 0.10) }
	// Every pixel series shows a fetch-bound plateau followed by an
	// ALU-bound rise: a finite crossover strictly inside the sweep.
	for _, label := range []string{
		"3870 Pixel Float", "4870 Pixel Float", "5870 Pixel Float",
		"3870 Pixel Float4", "4870 Pixel Float4", "5870 Pixel Float4",
	} {
		x := crossover(label)
		if math.IsNaN(x) || x <= 0.25 || x >= 8 {
			t.Errorf("%s: crossover = %v, want inside (0.25, 8)", label, x)
		}
	}

	// Float4's crossover is far above float's on the same card (the
	// paper: 1.25 vs 5.0), because each float4 fetch moves four times the
	// data while the dependent ALU chain is type-independent.
	for _, card := range []string{"3870", "4870", "5870"} {
		f := crossover(card + " Pixel Float")
		f4 := crossover(card + " Pixel Float4")
		if !(f4 >= 2*f) {
			t.Errorf("%s: float4 crossover %v not well above float's %v", card, f4, f)
		}
	}

	// At the fetch-bound plateau, generations order 3870 > 4870 > 5870.
	for _, dt := range []string{"Float", "Float4"} {
		t670 := at(t, seriesByLabel(t, fig, "3870 Pixel "+dt), 0.25)
		t770 := at(t, seriesByLabel(t, fig, "4870 Pixel "+dt), 0.25)
		t870 := at(t, seriesByLabel(t, fig, "5870 Pixel "+dt), 0.25)
		if !(t670 > t770 && t770 > t870) {
			t.Errorf("%s plateau ordering wrong: %v %v %v", dt, t670, t770, t870)
		}
	}

	// Naive 64x1 compute mode is slower than pixel mode at the plateau
	// (the cache is optimized for tiled access; the linear walk wastes
	// it — Section IV-A).
	for _, card := range []string{"4870", "5870"} {
		for _, dt := range []string{"Float", "Float4"} {
			pix := at(t, seriesByLabel(t, fig, card+" Pixel "+dt), 0.25)
			cmp := at(t, seriesByLabel(t, fig, card+" Compute "+dt), 0.25)
			if !(cmp > pix) {
				t.Errorf("%s %s: compute plateau %v not above pixel %v", card, dt, cmp, pix)
			}
		}
	}

	// At the plateau the kernels classify as fetch bound; at ratio 8 the
	// float pixel kernels classify as ALU bound.
	for _, r := range runs {
		if r.Card.Label() == "4870 Pixel Float" {
			if r.X == 0.25 && r.Bottleneck != "fetch" {
				t.Errorf("ratio 0.25 bottleneck = %s, want fetch", r.Bottleneck)
			}
			if r.X == 8.0 && r.Bottleneck != "ALU" {
				t.Errorf("ratio 8.0 bottleneck = %s, want ALU", r.Bottleneck)
			}
		}
	}
}

func TestFig8Block4x16Improvement(t *testing.T) {
	s := suite()
	fig7, _, err := runOn(s)(keep(xAtMost(1))(s.ALUFetchSpec(ALUFetchConfig{Cards: ComputeCards(0, 0)})))
	if err != nil {
		t.Fatal(err)
	}
	fig8, _, err := runOn(s)(keep(xAtMost(1))(s.ALUFetchSpec(ALUFetchConfig{Cards: ComputeCards(4, 16)})))
	if err != nil {
		t.Fatal(err)
	}
	// Significant improvement in compute mode for both chips and types
	// (the paper: RV870 quadruples for float4, RV770 roughly triples).
	for _, label := range []string{
		"4870 Compute Float", "4870 Compute Float4",
		"5870 Compute Float", "5870 Compute Float4",
	} {
		naive := at(t, seriesByLabel(t, fig7, label), 0.25)
		blocked := at(t, seriesByLabel(t, fig8, label), 0.25)
		if !(blocked < 0.8*naive) {
			t.Errorf("%s: 4x16 (%v) not a significant improvement over 64x1 (%v)", label, blocked, naive)
		}
	}
}

func TestFig9And10GlobalReadBehaviour(t *testing.T) {
	s := suite()
	fig9, _, err := runOn(s)(keep(xAtMost(2))(s.ALUFetchSpec(ALUFetchConfig{
		Cards:      PixelCards(),
		InputSpace: il.GlobalSpace, OutSpace: il.TextureSpace,
	})))
	if err != nil {
		t.Fatal(err)
	}
	fig10, _, err := runOn(s)(keep(xAtMost(2))(s.ALUFetchSpec(ALUFetchConfig{
		Cards:      PixelCards()[2:], // 4870 and 5870 entries
		InputSpace: il.GlobalSpace, OutSpace: il.GlobalSpace,
	})))
	if err != nil {
		t.Fatal(err)
	}
	// Little difference between streaming store and global write for the
	// GDDR5 chips: the single output is negligible (Section IV-A).
	for _, label := range []string{"4870 Pixel Float", "5870 Pixel Float4"} {
		a := at(t, seriesByLabel(t, fig9, label), 0.25)
		b := at(t, seriesByLabel(t, fig10, label), 0.25)
		if math.Abs(a-b)/a > 0.15 {
			t.Errorf("%s: fig9 %v vs fig10 %v differ by more than 15%%", label, a, b)
		}
	}
	// The RV670's global memory reads are drastically slower than the
	// GDDR5 chips'.
	t670 := at(t, seriesByLabel(t, fig9, "3870 Pixel Float"), 0.25)
	t770 := at(t, seriesByLabel(t, fig9, "4870 Pixel Float"), 0.25)
	if !(t670 > 3*t770) {
		t.Errorf("3870 global read %v not dramatically above 4870's %v", t670, t770)
	}
}

func TestFig11TextureFetchLatencyLinear(t *testing.T) {
	s := suite()
	fig, _, err := runOn(s)(s.ReadLatencySpec(il.TextureSpace))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range fig.Series {
		slope, _, r2 := report.LinearFit(sr)
		if slope <= 0 {
			t.Errorf("%s: slope %v not positive", sr.Label, slope)
		}
		if r2 < 0.95 {
			t.Errorf("%s: latency not linear in inputs (r2=%v)", sr.Label, r2)
		}
	}
	// Fetch times shrink with each generation.
	for _, x := range []float64{8, 16} {
		a := at(t, seriesByLabel(t, fig, "3870 Pixel Float"), x)
		b := at(t, seriesByLabel(t, fig, "4870 Pixel Float"), x)
		c := at(t, seriesByLabel(t, fig, "5870 Pixel Float"), x)
		if !(a > b && b > c) {
			t.Errorf("per-generation ordering at %v inputs: %v %v %v", x, a, b, c)
		}
	}
}

func TestFig12GlobalReadLatency(t *testing.T) {
	s := suite()
	fig11, _, err := runOn(s)(s.ReadLatencySpec(il.TextureSpace))
	if err != nil {
		t.Fatal(err)
	}
	fig12, _, err := runOn(s)(s.ReadLatencySpec(il.GlobalSpace))
	if err != nil {
		t.Fatal(err)
	}
	// The RV670's global read is much slower than its own texture fetch.
	tex := at(t, seriesByLabel(t, fig11, "3870 Pixel Float"), 16)
	glob := at(t, seriesByLabel(t, fig12, "3870 Pixel Float"), 16)
	if !(glob > 2*tex) {
		t.Errorf("3870 global read %v not far above its texture fetch %v", glob, tex)
	}
}

func TestFig13StreamingStore(t *testing.T) {
	s := suite()
	fig, _, err := runOn(s)(s.WriteLatencySpec(il.TextureSpace))
	if err != nil {
		t.Fatal(err)
	}
	// Pixel-mode only (compute has no color buffers): 6 series.
	if len(fig.Series) != 6 {
		t.Fatalf("Fig. 13 has %d series, want 6", len(fig.Series))
	}
	for _, sr := range fig.Series {
		slope, _, r2 := report.LinearFit(sr)
		if slope <= 0 || r2 < 0.9 {
			t.Errorf("%s: streaming store not linear (slope=%v r2=%v)", sr.Label, slope, r2)
		}
	}
}

func TestFig14GlobalWrite(t *testing.T) {
	s := suite()
	fig, _, err := runOn(s)(s.WriteLatencySpec(il.GlobalSpace))
	if err != nil {
		t.Fatal(err)
	}
	// Global writes are bytes-limited: the float4 slope is about 4x the
	// float slope on the same card ("each float is written at some
	// constant speed, whether it is vectorized or not").
	for _, card := range []string{"3870", "4870", "5870"} {
		sf := seriesByLabel(t, fig, card+" Pixel Float")
		sf4 := seriesByLabel(t, fig, card+" Pixel Float4")
		slopeF, _, _ := report.LinearFit(sf)
		slopeF4, _, _ := report.LinearFit(sf4)
		if ratio := slopeF4 / slopeF; ratio < 3 || ratio > 5.5 {
			t.Errorf("%s: float4/float write slope ratio = %v, want about 4", card, ratio)
		}
	}
	// Fetch-bound flat region at small outputs: the first increment is
	// much smaller than the last (the write only becomes the bottleneck
	// at larger output counts).
	sr := seriesByLabel(t, fig, "3870 Pixel Float")
	first := at(t, sr, 2) - at(t, sr, 1)
	last := at(t, sr, 8) - at(t, sr, 7)
	if !(first < 0.5*last) {
		t.Errorf("no fetch-bound flat region: first increment %v vs last %v", first, last)
	}
}

func TestFig15DomainSize(t *testing.T) {
	s := suite()
	every32 := func(p KernelPoint) bool { return (int(p.X)-domainMin)%32 == 0 }
	figA, _, err := runOn(s)(keep(every32)(s.DomainSizeSpec(PixelCards())))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range figA.Series {
		n := len(sr.Points)
		if sr.Points[0].Y >= sr.Points[n-1].Y {
			t.Errorf("%s: time does not grow with domain", sr.Label)
		}
	}
	// ALU-bound at ratio 10 with a dependency chain: float and float4
	// times coincide (no VLIW packing possible).
	f := at(t, seriesByLabel(t, figA, "4870 Pixel Float"), 1024)
	f4 := at(t, seriesByLabel(t, figA, "4870 Pixel Float4"), 1024)
	if math.Abs(f4-f)/f > 0.1 {
		t.Errorf("ALU-bound float %v and float4 %v diverge", f, f4)
	}
}

func TestFig16RegisterPressure(t *testing.T) {
	s := suite()
	_, runs, err := runOn(s)(s.RegisterUsageSpec(RegisterUsageConfig{Cards: StandardCards(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	// The speedup claims (3870/4870 gain, 5870 least affected) are rows
	// of the claims table, internal/campaign/claims.go. Their mechanism:
	// wavefront occupancy grows as registers shrink.
	var prevWaves, prevGPR = 0, 1 << 30
	for _, r := range runs {
		if r.Card.Label() != "4870 Pixel Float" {
			continue
		}
		if r.GPRs < prevGPR && r.Waves < prevWaves {
			t.Errorf("GPRs dropped to %d but waves dropped to %d", r.GPRs, r.Waves)
		}
		prevGPR, prevWaves = r.GPRs, r.Waves
	}
}

func TestFig17Block4x16RegisterPressure(t *testing.T) {
	s := suite()
	fig16, _, err := runOn(s)(s.RegisterUsageSpec(RegisterUsageConfig{Cards: ComputeCards(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	fig17, _, err := runOn(s)(s.RegisterUsageSpec(RegisterUsageConfig{Cards: ComputeCards(4, 16)}))
	if err != nil {
		t.Fatal(err)
	}
	// The 4x16 block's overall execution time beats the 64x1 block at
	// every register pressure (Section IV-E: "the overall execution time
	// is still better than the 64x1 implementation").
	for _, label := range []string{"4870 Compute Float", "5870 Compute Float4"} {
		s64 := seriesByLabel(t, fig16, label)
		s416 := seriesByLabel(t, fig17, label)
		for i := range s416.Points {
			if !(s416.Points[i].Y < s64.Points[i].Y) {
				t.Errorf("%s: 4x16 (%v) not below 64x1 (%v) at point %d",
					label, s416.Points[i].Y, s64.Points[i].Y, i)
			}
		}
	}
}
