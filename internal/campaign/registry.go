package campaign

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
)

// The name registry is the one declaration of every figure: one row per
// name, and nothing else to edit when a figure is added. cmd/amdmb's
// figure experiments and summary, `amdmb campaign`, the daemon and the
// benchmarks all plan figures through Specs, so `amdmb fig7 fig8` and
// `amdmb campaign -figs fig7,fig8` run the same sweep.

// Builder plans one figure on a suite.
type Builder func(*core.Suite) (core.FigureSpec, error)

// figure is one registry row. Its map key is the figure's name and also
// its ID.
type figure struct {
	// title, when non-empty, replaces the builder's title; the paper's
	// rows carry one, their builders none.
	title string
	build Builder
}

// with binds a core builder to the values its row varies; each sweep's
// fixed parameters are constants beside its builder.
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
		build: with((*core.Suite).ALUFetchSpec, core.ALUFetchConfig{Cards: core.StandardCards(0, 0)})},
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
		build: with((*core.Suite).ReadLatencySpec, il.TextureSpace)},
	"fig12": {title: "Global Read Latency",
		build: with((*core.Suite).ReadLatencySpec, il.GlobalSpace)},
	// Fig. 13: streaming store latency over outputs 1..8, pixel mode;
	// Fig. 14: global write latency, both modes.
	"fig13": {title: "Streaming Store Latency",
		build: with((*core.Suite).WriteLatencySpec, il.TextureSpace)},
	"fig14": {title: "Global Write Latency",
		build: with((*core.Suite).WriteLatencySpec, il.GlobalSpace)},
	// Fig. 15: domain size, (a) pixel and (b) compute mode.
	"fig15a": {title: "Domain Size Pixel Shader",
		build: with((*core.Suite).DomainSizeSpec, core.PixelCards())},
	"fig15b": {title: "Domain Size Compute Shader",
		build: with((*core.Suite).DomainSizeSpec, core.ComputeCards(0, 0))},
	// Fig. 16: register pressure — 64 inputs, space 8; Fig. 17 repeats
	// its compute series with the 4x16 block.
	"fig16": {title: "Impact of Register Usage",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{Cards: core.StandardCards(0, 0)})},
	"fig17": {title: "Impact of Register Usage with Block Size of 4x16",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{Cards: core.ComputeCards(4, 16)})},
	// The Fig. 5 control: identical clause structure with all sampling up
	// front. Its curves must be flat, proving Fig. 16's gains come from
	// register pressure rather than clause movement.
	"clausectl": {title: "Clause Usage Control",
		build: with((*core.Suite).RegisterUsageSpec, core.RegisterUsageConfig{
			Cards: core.StandardCards(0, 0), Control: true})},

	// Extensions beyond the paper's figures.
	"trans":  {build: (*core.Suite).TransThroughputSpec},
	"blocks": {build: (*core.Suite).BlockSizeSpec},
	"consts": {build: (*core.Suite).ConstantsSpec},
	// The ablation study: each modelled mechanism on and off.
	"ablate": {build: (*core.Suite).AblationSpec},

	// The memory-hierarchy dissection (internal/hier).
	"hier-lat":    {build: hier.LatencyLadderSpec},
	"hier-wset":   {build: hier.WorkingSetSpec},
	"hier-line":   {build: hier.LineBlendSpec},
	"hier-stride": {build: hier.StrideResonanceSpec},
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

// expand resolves glob names: a trailing '*' matches every known
// figure with the prefix, in sorted order ("hier-*" plans the whole
// hierarchy dissection). Matches a glob already produced are not
// repeated; a glob matching nothing is an error. Non-glob names pass
// through untouched.
func expand(names []string) ([]string, error) {
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
			return nil, badRequest("campaign: glob %q matches no figure (have %s)", name, strings.Join(FigureNames(), ", "))
		}
	}
	return out, nil
}

// Specs plans the named figures on the suite, in the order given,
// expanding trailing-'*' globs first. An unknown name fails with the
// accepted names listed; duplicates fail too — two copies of the same
// figure in one campaign is almost certainly a typo.
func Specs(s *core.Suite, names []string) ([]Spec, error) {
	names, err := expand(names)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		f, ok := registry[name]
		if !ok {
			return nil, badRequest("campaign: unknown figure %q (have %s)", name, strings.Join(FigureNames(), ", "))
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

// RequestError is a figure request the registry cannot serve: it names
// no figure, an unknown figure or arch, or a glob matching nothing, or
// its arch filter leaves a figure no points. `amdmb campaign` exits 2
// on it and 1 on any other planning error.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Resolve plans a figure request on s; it is the one request parser
// behind `amdmb campaign` and the daemon's Jobs.Submit. figs are names
// or trailing-'*' globs (trimmed, case-folded, blanks skipped), planned
// in the order given. archs, when non-empty, restricts every figure to
// the named architectures ("RV770" or the card name "4870",
// case-insensitive). Every point carries its own series label and plot
// mapping, so a filtered figure is exactly the matching series of the
// full one.
func Resolve(s *core.Suite, figs, archs []string) ([]Spec, error) {
	var names []string
	for _, n := range figs {
		if n = strings.ToLower(strings.TrimSpace(n)); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, badRequest("campaign: request names no figures")
	}
	keep, err := device.ParseArchs(archs)
	if err != nil {
		return nil, badRequest("campaign: %v", err)
	}
	specs, err := Specs(s, names)
	if err != nil || len(keep) == 0 {
		return specs, err
	}
	for i := range specs {
		pts := specs[i].Figure.Points
		kept := pts[:0:0]
		for _, pt := range pts {
			if slices.Contains(keep, pt.Card.Arch) {
				kept = append(kept, pt)
			}
		}
		if len(kept) == 0 {
			return nil, badRequest("campaign: arch filter leaves figure %q with no points", specs[i].Name)
		}
		specs[i].Figure.Points = kept
	}
	return specs, nil
}
