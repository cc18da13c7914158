package core

import (
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/report"
)

func TestCardLabels(t *testing.T) {
	c := Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float4}
	if c.Label() != "4870 Compute Float4" {
		t.Errorf("label = %q", c.Label())
	}
	c = Card{Arch: device.RV670, Mode: il.Pixel, Type: il.Float}
	if c.Label() != "3870 Pixel Float" {
		t.Errorf("label = %q", c.Label())
	}
}

func TestCardOrder(t *testing.T) {
	c := Card{Arch: device.RV770, Mode: il.Pixel}
	o, err := c.Order()
	if err != nil || o.Mode != il.Pixel {
		t.Fatalf("pixel order: %v %v", o, err)
	}
	c = Card{Arch: device.RV770, Mode: il.Compute}
	o, err = c.Order()
	if err != nil || o.BlockW != 64 || o.BlockH != 1 {
		t.Fatalf("default compute order should be 64x1, got %v (%v)", o, err)
	}
	c = Card{Arch: device.RV770, Mode: il.Compute, BlockW: 4, BlockH: 16}
	o, err = c.Order()
	if err != nil || o.BlockW != 4 {
		t.Fatalf("custom block order: %v %v", o, err)
	}
	c.BlockW, c.BlockH = 5, 5
	if _, err := c.Order(); err == nil {
		t.Fatal("25-thread block accepted")
	}
}

func TestStandardCards(t *testing.T) {
	cards := StandardCards(0, 0)
	// 3 chips x 2 types pixel + 2 chips x 2 types compute = 10 series,
	// matching Fig. 7's legend.
	if len(cards) != 10 {
		t.Fatalf("standard cards = %d, want 10", len(cards))
	}
	for _, c := range cards {
		if c.Arch == device.RV670 && c.Mode == il.Compute {
			t.Fatal("RV670 compute card generated")
		}
	}
	if n := len(PixelCards()); n != 6 {
		t.Fatalf("pixel cards = %d, want 6", n)
	}
	if n := len(ComputeCards(4, 16)); n != 4 {
		t.Fatalf("compute cards = %d, want 4", n)
	}
}

func TestHardwareTableMatchesPaper(t *testing.T) {
	s := NewSuite()
	out := s.HardwareTable().Format()
	for _, want := range []string{
		"RV670  320   16", "RV770  800   40", "RV870  1600  80",
		"750Mhz", "850Mhz", "DDR4", "DDR5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func seriesByLabel(t *testing.T, fig *report.Figure, label string) report.Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, label)
	return report.Series{}
}

func at(t *testing.T, s report.Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at x=%g", s.Label, x)
	return 0
}

func suite() *Suite {
	s := NewSuite()
	s.Iterations = 100 // relative shapes are iteration-invariant
	return s
}

// runOn runs a spec builder's result on s: the planning error if there
// is one, else RunFigureSpec's result. Call it as
// runOn(s)(s.ALUFetchSpec(cfg)).
func runOn(s *Suite) func(FigureSpec, error) (*report.Figure, []Run, error) {
	return func(spec FigureSpec, err error) (*report.Figure, []Run, error) {
		if err != nil {
			return nil, nil, err
		}
		return s.RunFigureSpec(spec)
	}
}

func TestALUFetchDefaultsAndRunMetadata(t *testing.T) {
	s := suite()
	fig, runs, err := runOn(s)(s.ALUFetchSpec(ALUFetchConfig{
		Cards:    []Card{{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}},
		RatioMax: 1.0,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 4 {
		t.Fatalf("expected 4 ratio points, got %+v", fig.Series)
	}
	for _, r := range runs {
		if r.Seconds <= 0 || r.GPRs <= 0 || r.Waves <= 0 {
			t.Fatalf("run metadata incomplete: %+v", r)
		}
		if r.Bottleneck == "" {
			t.Fatalf("run missing bottleneck: %+v", r)
		}
	}
}

func TestRegisterUsageAxisDescends(t *testing.T) {
	s := suite()
	fig, _, err := runOn(s)(s.RegisterUsageSpec(RegisterUsageConfig{
		Cards: []Card{{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	if len(pts) < 6 {
		t.Fatalf("too few register-usage points: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X >= pts[i-1].X {
			t.Fatalf("GPR axis not descending: %v", pts)
		}
	}
}
