package core

import (
	"fmt"
	"math"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/report"
)

// ALUFetchConfig parameterises the ALU:Fetch ratio sweep (Section III-A).
type ALUFetchConfig struct {
	Cards      []Card
	Inputs     int     // paper: 16
	W, H       int     // paper: 1024 x 1024
	RatioMin   float64 // paper: 0.25
	RatioMax   float64 // paper: 8.0
	RatioStep  float64 // paper: 0.25
	InputSpace il.MemSpace
	OutSpace   il.MemSpace
}

func (c *ALUFetchConfig) defaults() {
	if c.Inputs == 0 {
		c.Inputs = 16
	}
	if c.W == 0 {
		c.W, c.H = 1024, 1024
	}
	if c.RatioMin == 0 {
		c.RatioMin = 0.25
	}
	if c.RatioMax == 0 {
		c.RatioMax = 8.0
	}
	if c.RatioStep == 0 {
		c.RatioStep = 0.25
	}
	if c.Cards == nil {
		c.Cards = StandardCards(0, 0)
	}
}

// ALUFetchSpec plans the ALU:Fetch ratio sweep without running anything:
// one kernel per (card, ratio), card-major, ready for RunFigureSpec or a
// multi-figure campaign plan. Its curves locate the ratio where the
// bottleneck flips from the texture fetch units to the ALUs.
func (s *Suite) ALUFetchSpec(cfg ALUFetchConfig) (FigureSpec, error) {
	cfg.defaults()
	fig := &report.Figure{
		ID:     "alufetch",
		Title:  fmt.Sprintf("ALU:Fetch Ratio for %d Inputs (%s read, %s write)", cfg.Inputs, cfg.InputSpace, cfg.OutSpace),
		XLabel: "ALU:Fetch Ratio",
		YLabel: "Time in seconds",
	}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		for r := cfg.RatioMin; r <= cfg.RatioMax+1e-9; r += cfg.RatioStep {
			p := card.params(cfg.Inputs, 1, cfg.InputSpace, cfg.OutSpace)
			p.ALUFetchRatio = r
			k, err := s.generate(pipeline.GenALUFetch, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: r, K: k, W: cfg.W, H: cfg.H})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// ReadLatencyConfig parameterises the fetch/read latency sweep (III-B).
type ReadLatencyConfig struct {
	Cards     []Card
	MinInputs int // paper: 2
	MaxInputs int // paper: 18
	W, H      int
	Space     il.MemSpace // TextureSpace for Fig. 11, GlobalSpace for Fig. 12
}

func (c *ReadLatencyConfig) defaults() {
	if c.MinInputs == 0 {
		c.MinInputs = 2
	}
	if c.MaxInputs == 0 {
		c.MaxInputs = 18
	}
	if c.W == 0 {
		c.W, c.H = 1024, 1024
	}
	if c.Cards == nil {
		c.Cards = StandardCards(0, 0)
	}
}

// ReadLatencySpec plans the read latency sweep: the input count varies
// with the ALU count pinned to inputs-1, keeping the fetch path the
// bottleneck.
func (s *Suite) ReadLatencySpec(cfg ReadLatencyConfig) (FigureSpec, error) {
	cfg.defaults()
	title := "Texture Fetch Latency"
	if cfg.Space == il.GlobalSpace {
		title = "Global Read Latency"
	}
	fig := &report.Figure{ID: "readlat", Title: title, XLabel: "Number of Inputs", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		for n := cfg.MinInputs; n <= cfg.MaxInputs; n++ {
			p := card.params(n, 1, cfg.Space, il.TextureSpace)
			k, err := s.generate(pipeline.GenReadLatency, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(n), K: k, W: cfg.W, H: cfg.H})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// WriteLatencyConfig parameterises the write latency sweep (III-C).
type WriteLatencyConfig struct {
	Cards      []Card
	Inputs     int // paper: 8, keeping register usage constant
	MaxOutputs int // paper: 8
	W, H       int
	Space      il.MemSpace // TextureSpace = streaming stores (Fig. 13), GlobalSpace = global writes (Fig. 14)
}

func (c *WriteLatencyConfig) defaults() {
	if c.Inputs == 0 {
		c.Inputs = 8
	}
	if c.MaxOutputs == 0 {
		c.MaxOutputs = 8
	}
	if c.W == 0 {
		c.W, c.H = 1024, 1024
	}
	if c.Cards == nil {
		if c.Space == il.GlobalSpace {
			c.Cards = StandardCards(0, 0)
		} else {
			// Streaming stores exist only in pixel shader mode.
			c.Cards = PixelCards()
		}
	}
}

// WriteLatencySpec plans the write latency sweep: the output count varies
// at constant inputs and ALU ops.
func (s *Suite) WriteLatencySpec(cfg WriteLatencyConfig) (FigureSpec, error) {
	cfg.defaults()
	title := "Streaming Store Latency"
	if cfg.Space == il.GlobalSpace {
		title = "Global Write Latency"
	}
	fig := &report.Figure{ID: "writelat", Title: title, XLabel: "Number of Outputs", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		if cfg.Space == il.TextureSpace && card.Mode == il.Compute {
			continue // compute mode does not support streaming stores
		}
		for n := 1; n <= cfg.MaxOutputs; n++ {
			p := card.params(cfg.Inputs, n, il.TextureSpace, cfg.Space)
			k, err := s.generate(pipeline.GenWriteLatency, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(n), K: k, W: cfg.W, H: cfg.H})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// DomainConfig parameterises the domain size sweep (III-D).
type DomainConfig struct {
	Cards    []Card
	MinDim   int // paper: 256
	MaxDim   int // paper: 1024
	StepPix  int // paper: 8 for pixel mode
	StepComp int // paper: 64 for compute mode
}

func (c *DomainConfig) defaults() {
	if c.MinDim == 0 {
		c.MinDim = 256
	}
	if c.MaxDim == 0 {
		c.MaxDim = 1024
	}
	if c.StepPix == 0 {
		c.StepPix = 8
	}
	if c.StepComp == 0 {
		c.StepComp = 64
	}
	if c.Cards == nil {
		c.Cards = StandardCards(0, 0)
	}
}

// DomainSizeSpec plans the domain size sweep: square domains at ALU:Fetch
// ratio 10 (ALU bound, 8 inputs, 1 output, so occupancy stays constant).
func (s *Suite) DomainSizeSpec(cfg DomainConfig) (FigureSpec, error) {
	cfg.defaults()
	fig := &report.Figure{ID: "domain", Title: "Impact of Domain Size", XLabel: "Domain Size", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		step := cfg.StepPix
		if card.Mode == il.Compute {
			step = cfg.StepComp
		}
		for d := cfg.MinDim; d <= cfg.MaxDim; d += step {
			p := card.params(8, 1, il.TextureSpace, il.TextureSpace)
			k, err := s.generate(pipeline.GenDomain, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(d), K: k, W: d, H: d})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// RegisterUsageConfig parameterises the register pressure sweep (III-E).
type RegisterUsageConfig struct {
	Cards   []Card
	Inputs  int     // paper: 64
	Space   int     // paper: 8
	MaxStep int     // paper's plot reaches GPR ~10, i.e. step 7
	Ratio   float64 // paper: 4.0
	W, H    int
	// Control replaces the register-usage kernel with the clause-usage
	// kernel of Fig. 5 (all sampling up front), which must show constant
	// time: the proof that the gains come from register pressure.
	Control bool
}

func (c *RegisterUsageConfig) defaults() {
	if c.Inputs == 0 {
		c.Inputs = 64
	}
	if c.Space == 0 {
		c.Space = 8
	}
	if c.MaxStep == 0 {
		c.MaxStep = 7
	}
	if c.Ratio == 0 {
		// The paper quotes "ALU:Fetch ratio 4.0" for Fig. 16 under its
		// generator's raw convention (Fig. 6 multiplies by 4 again); in
		// the SKA convention used throughout this suite that work level
		// corresponds to 1.0 — four ALU ops per fetch — which is what
		// leaves the kernel latency-sensitive at low occupancy.
		c.Ratio = 1.0
	}
	if c.W == 0 {
		c.W, c.H = 1024, 1024
	}
	if c.Cards == nil {
		c.Cards = StandardCards(0, 0)
	}
}

// RegisterUsageSpec plans the register pressure sweep over the sampling
// placement (step), timed against the resulting register count — Fig.
// 16's axes. A point's X is its step index; it plots at the compiled
// register count, which is known only once the run completes.
func (s *Suite) RegisterUsageSpec(cfg RegisterUsageConfig) (FigureSpec, error) {
	cfg.defaults()
	title := "Register Pressure Effect"
	if cfg.Control {
		title = "Clause Usage Control (constant registers)"
	}
	fig := &report.Figure{ID: "regusage", Title: title, XLabel: "Global Purpose Registers", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		for step := 0; step <= cfg.MaxStep; step++ {
			if cfg.Inputs-cfg.Space*step < 2 {
				break
			}
			p := card.params(cfg.Inputs, 1, il.TextureSpace, il.TextureSpace)
			p.ALUFetchRatio = cfg.Ratio
			p.Space = cfg.Space
			p.Step = step
			gen := pipeline.GenRegisterUsage
			if cfg.Control {
				gen = pipeline.GenClauseUsage
			}
			k, err := s.generate(gen, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(step), Plot: plotGPRs, K: k, W: cfg.W, H: cfg.H})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

func plotGPRs(r Run) (x, y float64) { return float64(r.GPRs), r.Seconds }

// HardwareTable reproduces Table I from the device models.
func (s *Suite) HardwareTable() *report.Table {
	t := &report.Table{
		Title:  "Table I: GPU Hardware Features",
		Header: []string{"GPU", "ALUs", "Texture Units", "SIMD Engines", "Core Clock", "Mem Clock", "Mem Type"},
	}
	for _, spec := range device.All() {
		t.AddRow(
			spec.Arch.String(),
			fmt.Sprintf("%d", spec.ALUs),
			fmt.Sprintf("%d", spec.TextureUnits),
			fmt.Sprintf("%d", spec.SIMDEngines),
			fmt.Sprintf("%dMhz", spec.CoreClockMHz),
			fmt.Sprintf("%dMhz", spec.MemClockMHz),
			spec.MemKind.String(),
		)
	}
	return t
}

// CrossoverOf extracts the bottleneck-flip ratio of a labelled series in
// an ALU:Fetch figure, NaN when the series never leaves its plateau.
func CrossoverOf(fig *report.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label {
			return report.Crossover(s, 0.10)
		}
	}
	return math.NaN()
}
