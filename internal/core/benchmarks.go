package core

import (
	"fmt"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/report"
)

// paperDomain is the side of the square domain every paper sweep times
// (1024 x 1024), except the domain-size sweep, which varies it.
const paperDomain = 1024

// The ALU:Fetch ratio sweep (Section III-A): 16 inputs, ratios 0.25..8.0
// in steps of 0.25.
const (
	aluFetchInputs = 16
	ratioMin       = 0.25
	ratioMax       = 8.0
	ratioStep      = 0.25
)

// ALUFetchConfig selects one ALU:Fetch ratio sweep: the cards plotted
// and the memory spaces inputs are read from and outputs written to.
type ALUFetchConfig struct {
	Cards      []Card
	InputSpace il.MemSpace
	OutSpace   il.MemSpace
}

// ALUFetchSpec plans the ALU:Fetch ratio sweep without running anything:
// one kernel per (card, ratio), card-major, ready for a campaign plan.
// Its curves locate the ratio where the bottleneck flips from the
// texture fetch units to the ALUs.
func (s *Suite) ALUFetchSpec(cfg ALUFetchConfig) (FigureSpec, error) {
	fig := &report.Figure{XLabel: "ALU:Fetch Ratio", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		for r := ratioMin; r <= ratioMax+1e-9; r += ratioStep {
			p := card.params(aluFetchInputs, 1, cfg.InputSpace, cfg.OutSpace)
			p.ALUFetchRatio = r
			k, err := s.Pipeline().Generate(pipeline.GenALUFetch, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: r, K: k, W: paperDomain, H: paperDomain})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The read latency sweep (Section III-B) runs inputs 2..18.
const (
	readMinInputs = 2
	readMaxInputs = 18
)

// ReadLatencySpec plans the read latency sweep on every card, reading
// from space: TextureSpace for Fig. 11, GlobalSpace for Fig. 12. The
// input count varies with the ALU count pinned to inputs-1, keeping the
// fetch path the bottleneck.
func (s *Suite) ReadLatencySpec(space il.MemSpace) (FigureSpec, error) {
	fig := &report.Figure{XLabel: "Number of Inputs", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range StandardCards(0, 0) {
		for n := readMinInputs; n <= readMaxInputs; n++ {
			p := card.params(n, 1, space, il.TextureSpace)
			k, err := s.Pipeline().Generate(pipeline.GenReadLatency, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(n), K: k, W: paperDomain, H: paperDomain})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The write latency sweep (Section III-C) runs outputs 1..8 at 8 inputs,
// keeping register usage constant.
const (
	writeInputs     = 8
	writeMaxOutputs = 8
)

// WriteLatencySpec plans the write latency sweep into space: TextureSpace
// is streaming stores (Fig. 13), which exist only in pixel shader mode,
// and GlobalSpace is global writes (Fig. 14) on every card. The output
// count varies at constant inputs and ALU ops.
func (s *Suite) WriteLatencySpec(space il.MemSpace) (FigureSpec, error) {
	cards := StandardCards(0, 0)
	if space == il.TextureSpace {
		cards = PixelCards()
	}
	fig := &report.Figure{XLabel: "Number of Outputs", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cards {
		for n := 1; n <= writeMaxOutputs; n++ {
			p := card.params(writeInputs, n, il.TextureSpace, space)
			k, err := s.Pipeline().Generate(pipeline.GenWriteLatency, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(n), K: k, W: paperDomain, H: paperDomain})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The domain size sweep (Section III-D): square domains 256..1024, in
// steps of 8 in pixel mode and 64 in compute mode.
const (
	domainMin         = 256
	domainMax         = 1024
	domainStepPixel   = 8
	domainStepCompute = 64
)

// DomainSizeSpec plans the domain size sweep on cards: square domains at
// ALU:Fetch ratio 10 (ALU bound, 8 inputs, 1 output, so occupancy stays
// constant).
func (s *Suite) DomainSizeSpec(cards []Card) (FigureSpec, error) {
	fig := &report.Figure{XLabel: "Domain Size", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cards {
		step := domainStepPixel
		if card.Mode == il.Compute {
			step = domainStepCompute
		}
		for d := domainMin; d <= domainMax; d += step {
			p := card.params(8, 1, il.TextureSpace, il.TextureSpace)
			k, err := s.Pipeline().Generate(pipeline.GenDomain, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(d), K: k, W: d, H: d})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The register pressure sweep (Section III-E): 64 inputs at space 8,
// sampling placement steps 0..7 (the paper's plot reaches GPR ~10, i.e.
// step 7).
const (
	regInputs  = 64
	regSpace   = 8
	regMaxStep = 7
	// regRatio: the paper quotes "ALU:Fetch ratio 4.0" for Fig. 16 under
	// its generator's raw convention (Fig. 6 multiplies by 4 again); in
	// the SKA convention used throughout this suite that work level
	// corresponds to 1.0 — four ALU ops per fetch — which is what leaves
	// the kernel latency-sensitive at low occupancy.
	regRatio = 1.0
)

// RegisterUsageConfig selects one register pressure sweep.
type RegisterUsageConfig struct {
	Cards []Card
	// Control replaces the register-usage kernel with the clause-usage
	// kernel of Fig. 5 (all sampling up front), which must show constant
	// time: the proof that the gains come from register pressure.
	Control bool
}

// RegisterUsageSpec plans the register pressure sweep over the sampling
// placement (step), timed against the resulting register count — Fig.
// 16's axes. A point's X is its step index; it plots at the compiled
// register count, which is known only once the run completes.
func (s *Suite) RegisterUsageSpec(cfg RegisterUsageConfig) (FigureSpec, error) {
	fig := &report.Figure{XLabel: "Global Purpose Registers", YLabel: "Time in seconds"}
	var pts []KernelPoint
	for _, card := range cfg.Cards {
		for step := 0; step <= regMaxStep; step++ {
			p := card.params(regInputs, 1, il.TextureSpace, il.TextureSpace)
			p.ALUFetchRatio = regRatio
			p.Space = regSpace
			p.Step = step
			// At step 0 both kernels sample everything up front, so the
			// control asks for the register-usage source: one kernel,
			// one launch for both figures.
			gen := pipeline.GenRegisterUsage
			if cfg.Control && step > 0 {
				gen = pipeline.GenClauseUsage
			}
			k, err := s.Pipeline().Generate(gen, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(step), Plot: plotGPRs, K: k, W: paperDomain, H: paperDomain})
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
