package campaign

import (
	"fmt"
	"sort"
	"strings"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
	"amdgpubench/internal/report"
)

// The name registry is the one declaration of every figure: one row per
// name, and nothing else to edit when a figure is added. cmd/amdmb's
// per-figure experiments, `amdmb campaign`, the daemon and the
// benchmarks all build figures through Specs, so `amdmb campaign -figs
// fig7,fig8` plans exactly the sweeps `amdmb fig7 fig8` runs.

// Builder plans one figure on a suite.
type Builder func(*core.Suite) (core.FigureSpec, error)

// figure is one registry row. Its map key is the figure's name and also
// its ID.
type figure struct {
	// title, when non-empty, replaces the builder's generic title.
	title string
	build Builder
}

// with binds a parameterised core builder to one configuration.
func with[C any](build func(*core.Suite, C) (core.FigureSpec, error), cfg C) Builder {
	return func(s *core.Suite) (core.FigureSpec, error) { return build(s, cfg) }
}

// gddr5Cards are Fig. 10's cards: the GDDR5 chips in both modes, the
// configuration the paper plots.
func gddr5Cards() []core.Card {
	var cards []core.Card
	for _, a := range []device.Arch{device.RV770, device.RV870} {
		for _, dt := range []il.DataType{il.Float, il.Float4} {
			cards = append(cards, core.Card{Arch: a, Mode: il.Pixel, Type: dt})
			cards = append(cards, core.Card{Arch: a, Mode: il.Compute, Type: dt})
		}
	}
	return cards
}

var registry = map[string]figure{
	// Fig. 7: ALU:Fetch ratio with texture-fetch inputs — 16 inputs, one
	// output, domain 1024x1024, ratios 0.25..8.0 step 0.25, every chip in
	// pixel and (naive 64x1) compute mode, float and float4.
	"fig7": {title: "ALU:Fetch Ratio for 16 Inputs",
		build: with((*core.Suite).ALUFetchSpec, core.ALUFetchConfig{})},
	// Fig. 8: Fig. 7's compute-mode series with the optimized 4x16 block.
	"fig8": {title: "ALU:Fetch Ratio for 16 Inputs with Block Size of 4x16",
		build: with((*core.Suite).ALUFetchSpec, core.ALUFetchConfig{Cards: core.ComputeCards(4, 16)})},
	// Fig. 9: global-memory reads and streaming stores, pixel mode only.
	"fig9": {title: "ALU:Fetch Ratio Global Read Stream Write",
		build: with((*core.Suite).ALUFetchSpec, core.ALUFetchConfig{
			Cards: core.PixelCards(), InputSpace: il.GlobalSpace, OutSpace: il.TextureSpace})},
	// Fig. 10: global reads and global writes on the GDDR5 chips.
	"fig10": {title: "ALU:Fetch Ratio for 16 Inputs using Global Read and Write",
		build: with((*core.Suite).ALUFetchSpec, core.ALUFetchConfig{
			Cards: gddr5Cards(), InputSpace: il.GlobalSpace, OutSpace: il.GlobalSpace})},
	// Figs. 11 and 12: read latency over inputs 2..18.
	"fig11": {title: "Texture Fetch Latency",
		build: with((*core.Suite).ReadLatencySpec, core.ReadLatencyConfig{Space: il.TextureSpace})},
	"fig12": {title: "Global Read Latency",
		build: with((*core.Suite).ReadLatencySpec, core.ReadLatencyConfig{Space: il.GlobalSpace})},
	// Fig. 13: streaming store latency over outputs 1..8, pixel mode;
	// Fig. 14: global write latency, both modes.
	"fig13": {title: "Streaming Store Latency",
		build: with((*core.Suite).WriteLatencySpec, core.WriteLatencyConfig{Space: il.TextureSpace})},
	"fig14": {title: "Global Write Latency",
		build: with((*core.Suite).WriteLatencySpec, core.WriteLatencyConfig{Space: il.GlobalSpace})},
	// Fig. 15: domain size, (a) pixel and (b) compute mode.
	"fig15a": {title: "Domain Size Pixel Shader",
		build: with((*core.Suite).DomainSizeSpec, core.DomainConfig{Cards: core.PixelCards()})},
	"fig15b": {title: "Domain Size Compute Shader",
		build: with((*core.Suite).DomainSizeSpec, core.DomainConfig{Cards: core.ComputeCards(0, 0)})},
	// Fig. 16: register pressure — 64 inputs, space 8; Fig. 17 repeats
	// its compute series with the 4x16 block.
	"fig16": {title: "Impact of Register Usage",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{})},
	"fig17": {title: "Impact of Register Usage with Block Size of 4x16",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{Cards: core.ComputeCards(4, 16)})},
	// The Fig. 5 control: identical clause structure with all sampling up
	// front. Its curves must be flat, proving Fig. 16's gains come from
	// register pressure rather than clause movement.
	"clausectl": {title: "Clause Usage Control",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{Control: true})},

	// Extensions beyond the paper's figures.
	"trans":  {build: with((*core.Suite).TransThroughputSpec, core.TransThroughputConfig{Arch: device.RV770})},
	"blocks": {build: with((*core.Suite).BlockSizeSpec, core.BlockSizeConfig{})},
	"consts": {build: with((*core.Suite).ConstantsSpec, core.ConstantsConfig{Arch: device.RV770})},

	// The memory-hierarchy dissection (internal/hier).
	"hier-lat":    {build: hier.LatencyLadderSpec},
	"hier-wset":   {build: hier.WorkingSetSpec},
	"hier-line":   {build: hier.LineBlendSpec},
	"hier-stride": {build: hier.StrideResonanceSpec},
}

// Known reports whether Specs accepts the name.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// FigureNames lists every name Specs accepts, sorted.
func FigureNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
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
		f, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("campaign: unknown figure %q (have %s)", name, strings.Join(FigureNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign: figure %q listed twice", name)
		}
		seen[name] = true
		spec, err := f.build(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: planning %s: %w", name, err)
		}
		spec.Fig.ID = name
		if f.title != "" {
			spec.Fig.Title = f.title
		}
		specs = append(specs, Spec{Name: name, Figure: spec})
	}
	return specs, nil
}

// RunFigure runs one registry figure alone on s. `amdmb <fig>`, the
// claims table and the benchmarks run figures through it, so `amdmb
// fig7` runs exactly the sweep `amdmb campaign -figs fig7` plans.
func RunFigure(s *core.Suite, name string) (*report.Figure, []core.Run, error) {
	specs, err := Specs(s, []string{name})
	if err != nil {
		return nil, nil, err
	}
	return s.RunFigureSpec(specs[0].Figure)
}
