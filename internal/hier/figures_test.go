package hier

import (
	"crypto/sha256"
	"testing"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
)

// TestFigureSpecsShareProbeSeals: a hierarchy figure hands equal probes
// on different cards one seal, so each probe compiles once per
// compiler target rather than once per card. The ladder and blend
// figures run every probe on all three cards; the stride figure's
// probes depend on each card's L1, so only one seal per content is
// required of it.
func TestFigureSpecsShareProbeSeals(t *testing.T) {
	for _, c := range []struct {
		name     string
		build    func(*core.Suite) (core.FigureSpec, error)
		allCards bool
	}{
		{"hier-lat", LatencyLadderSpec, true},
		{"hier-wset", WorkingSetSpec, true},
		{"hier-line", LineBlendSpec, true},
		{"hier-stride", StrideResonanceSpec, false},
	} {
		spec, err := c.build(core.NewSuite())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		byContent := map[[sha256.Size]byte]*il.Sealed{}
		cards := map[*il.Sealed]int{}
		for _, pt := range spec.Points {
			h, err := pt.K.Hash()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if k, ok := byContent[h]; ok && k != pt.K {
				t.Errorf("%s: probe %s on %s has a second seal", c.name, pt.K.Name, pt.Card.Label())
			}
			byContent[h] = pt.K
			cards[pt.K]++
		}
		for k, n := range cards {
			if c.allCards && n != len(device.All()) {
				t.Errorf("%s: probe %s's seal serves %d points, want one per card (%d)", c.name, k.Name, n, len(device.All()))
			}
		}
	}
}
