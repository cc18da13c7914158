package campaign

import (
	"fmt"
	"sort"
	"strings"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
)

// The name registry maps the CLI's figure names to their spec builders
// and is the one place each figure's configuration lives: cmd/amdmb's
// per-figure experiments build their figures through Specs too, so
// `amdmb campaign -figs fig7,fig8` plans exactly the sweeps
// `amdmb fig7 fig8` runs.

// Builder plans one figure on a suite.
type Builder func(*core.Suite) (core.FigureSpec, error)

var builders = map[string]Builder{
	"fig7":      (*core.Suite).Fig7Spec,
	"fig8":      (*core.Suite).Fig8Spec,
	"fig9":      (*core.Suite).Fig9Spec,
	"fig10":     (*core.Suite).Fig10Spec,
	"fig11":     (*core.Suite).Fig11Spec,
	"fig12":     (*core.Suite).Fig12Spec,
	"fig13":     (*core.Suite).Fig13Spec,
	"fig14":     (*core.Suite).Fig14Spec,
	"fig15a":    (*core.Suite).Fig15PixelSpec,
	"fig15b":    (*core.Suite).Fig15ComputeSpec,
	"fig16":     (*core.Suite).Fig16Spec,
	"fig17":     (*core.Suite).Fig17Spec,
	"clausectl": (*core.Suite).ClauseControlSpec,
	"trans": func(s *core.Suite) (core.FigureSpec, error) {
		return s.TransThroughputSpec(core.TransThroughputConfig{Arch: device.RV770})
	},
	"blocks": func(s *core.Suite) (core.FigureSpec, error) {
		return s.BlockSizeSpec(core.BlockSizeConfig{})
	},
	"consts": func(s *core.Suite) (core.FigureSpec, error) {
		return s.ConstantsSpec(core.ConstantsConfig{Arch: device.RV770})
	},
	"hier-lat":    hier.LatencyLadderSpec,
	"hier-wset":   hier.WorkingSetSpec,
	"hier-line":   hier.LineBlendSpec,
	"hier-stride": hier.StrideResonanceSpec,
}

// Known reports whether Specs accepts the name.
func Known(name string) bool {
	_, ok := builders[name]
	return ok
}

// FigureNames lists every name Specs accepts, sorted.
func FigureNames() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Expand resolves glob names: a trailing '*' matches every known
// figure with the prefix, in sorted order ("hier-*" plans the whole
// hierarchy dissection). Matches a glob already produced are not
// repeated; a glob matching nothing is an error. Non-glob names pass
// through untouched.
func Expand(names []string) ([]string, error) {
	var out []string
	emitted := make(map[string]bool, len(names))
	for _, name := range names {
		if !strings.HasSuffix(name, "*") {
			out = append(out, name)
			emitted[name] = true
			continue
		}
		prefix := strings.TrimSuffix(name, "*")
		matched := false
		for _, known := range FigureNames() {
			if strings.HasPrefix(known, prefix) {
				matched = true
				if !emitted[known] {
					out = append(out, known)
					emitted[known] = true
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("campaign: glob %q matches no figure (have %s)", name, strings.Join(FigureNames(), ", "))
		}
	}
	return out, nil
}

// Specs plans the named figures on the suite, in the order given,
// expanding trailing-'*' globs first. An unknown name fails with the
// accepted names listed; duplicates fail too — the scheduler fans one
// result out to many figures, but two copies of the same figure in one
// campaign is almost certainly a typo.
func Specs(s *core.Suite, names []string) ([]Spec, error) {
	names, err := Expand(names)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		b, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("campaign: unknown figure %q (have %s)", name, strings.Join(FigureNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign: figure %q listed twice", name)
		}
		seen[name] = true
		fig, err := b(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: planning %s: %w", name, err)
		}
		specs = append(specs, Spec{Name: name, Figure: fig})
	}
	return specs, nil
}
