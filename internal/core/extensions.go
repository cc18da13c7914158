package core

// Extensions beyond the paper's figure set (DESIGN.md §7): a
// transcendental-throughput micro-benchmark exercising the t stream core,
// and an ablation study quantifying what each modelled hardware mechanism
// contributes to the paper's results.

import (
	"fmt"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/report"
	"amdgpubench/internal/sim"
)

// transKernel builds a chain of `n` transcendental ops (alternating
// rcp/rsq) after folding two inputs; basic=true substitutes adds so the
// two curves isolate the t-core's throughput.
func transKernel(n int, dt il.DataType, basic bool) (*il.Sealed, error) {
	k := &il.Kernel{
		Name: fmt.Sprintf("trans_%d_%v_%v", n, dt, basic),
		Mode: il.Pixel, Type: dt,
		NumInputs: 2, NumOutputs: 1,
	}
	k.Code = append(k.Code,
		il.Instr{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
		il.Instr{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
		il.Instr{Op: il.OpAdd, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
	)
	acc := il.Reg(2)
	r := il.Reg(3)
	for i := 0; i < n; i++ {
		var in il.Instr
		switch {
		case basic:
			in = il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: acc, Res: -1}
		case i%2 == 0:
			in = il.Instr{Op: il.OpRcp, Dst: r, SrcA: acc, SrcB: il.NoReg, Res: -1}
		default:
			in = il.Instr{Op: il.OpRsq, Dst: r, SrcA: acc, SrcB: il.NoReg, Res: -1}
		}
		k.Code = append(k.Code, in)
		acc = r
		r++
	}
	k.Code = append(k.Code, il.Instr{Op: il.OpExport, Dst: il.NoReg, SrcA: acc, SrcB: il.NoReg, Res: 0})
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return il.SealValid(k), nil
}

// The transcendental extension sweep: chains of 32..256 ops in steps of
// 32 on the HD 4870.
const (
	transArch    = device.RV770
	transMaxOps  = 256
	transStepOps = 32
)

// TransThroughputSpec plans the transcendental extension sweep: the
// dependent-chain throughput of transcendental versus basic operations
// for float and float4 data. Basic float4 ops ride the 4-wide VLIW slots
// (one bundle per op); float4 transcendentals serialize through the
// single t core at one lane per bundle, costing 4x — the asymmetry the
// paper's Section II hardware description implies. Series carry custom
// labels (data type x op kind).
func (s *Suite) TransThroughputSpec() (FigureSpec, error) {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Transcendental vs basic ALU chains (%s)", transArch.CardName()),
		XLabel: "Chain length (ops)",
		YLabel: "Time in seconds",
	}
	var pts []KernelPoint
	for _, dt := range []il.DataType{il.Float, il.Float4} {
		for _, basic := range []bool{true, false} {
			kind := "rcp/rsq"
			if basic {
				kind = "add"
			}
			card := Card{Arch: transArch, Mode: il.Pixel, Type: dt}
			label := fmt.Sprintf("%s %s %s", transArch.CardName(), dt, kind)
			for n := transStepOps; n <= transMaxOps; n += transStepOps {
				k, err := transKernel(n, dt, basic)
				if err != nil {
					return FigureSpec{}, err
				}
				pts = append(pts, KernelPoint{Card: card, X: float64(n), Series: label, K: k, W: paperDomain, H: paperDomain})
			}
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The compute-mode block-shape sweep, the extension the paper hints at
// ("it is possible that one can achieve greater performance by using
// different block sizes"): Fig. 7's 16-input kernel at ratio 0.25, fetch
// bound, so the cache effect dominates.
const (
	blockInputs = 16
	blockRatio  = 0.25
)

// blockShapes are the seven 64-thread block shapes, from fully horizontal
// to fully vertical; x-axis value is log2 of the block height.
var blockShapes = []struct{ w, h int }{
	{64, 1}, {32, 2}, {16, 4}, {8, 8}, {4, 16}, {2, 32}, {1, 64},
}

// BlockSizeSpec plans the compute block-shape sweep: one fetch-bound
// kernel across every 64-thread block shape in compute mode on the GDDR5
// chips. The square-ish shapes match the 8x8 texture tiles and win; the
// paper's 64x1 default and its 4x16 suggestion are two points on this
// curve. Block shape changes within a series, which is one series per
// chip and type because Card.Label omits the block shape by design.
func (s *Suite) BlockSizeSpec() (FigureSpec, error) {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Compute block-size sweep (%d inputs, ratio %.2f)", blockInputs, blockRatio),
		XLabel: "log2(block height) [64x1 .. 1x64]",
		YLabel: "Time in seconds",
	}
	var pts []KernelPoint
	for _, arch := range []device.Arch{device.RV770, device.RV870} {
		for _, dt := range []il.DataType{il.Float, il.Float4} {
			card := Card{Arch: arch, Mode: il.Compute, Type: dt}
			for i, b := range blockShapes {
				card.BlockW, card.BlockH = b.w, b.h
				p := card.params(blockInputs, 1, il.TextureSpace, il.GlobalSpace)
				p.ALUFetchRatio = blockRatio
				k, err := s.Pipeline().Generate(pipeline.GenALUFetch, p)
				if err != nil {
					return FigureSpec{}, err
				}
				pts = append(pts, KernelPoint{Card: card, X: float64(i), K: k, W: paperDomain, H: paperDomain})
			}
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// The constants sweep. The paper lists the number of constants among
// every micro-benchmark's kernel parameters and holds it fixed to isolate
// other factors; this extension verifies the premise behind that choice —
// constants are free: they live in the constant file, occupy no general
// purpose registers and generate no fetch traffic. It folds 0..16
// constants into a fixed 8-input, 64-op chain on the HD 4870.
const (
	constsArch   = device.RV770
	constsInputs = 8
	constsALUOps = 64
	maxConstants = 16
)

// ConstantsSpec plans the constants sweep: one kernel shape with
// 0..maxConstants constants folded into its (fixed-length) chain. The
// curve must be flat and the register count must not move.
func (s *Suite) ConstantsSpec() (FigureSpec, error) {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Constant count sweep (%d inputs, %d ALU ops)", constsInputs, constsALUOps),
		XLabel: "Number of Constants",
		YLabel: "Time in seconds",
	}
	var pts []KernelPoint
	for _, dt := range []il.DataType{il.Float, il.Float4} {
		card := Card{Arch: constsArch, Mode: il.Pixel, Type: dt}
		for n := 0; n <= maxConstants; n += 4 {
			p := card.params(constsInputs, 1, il.TextureSpace, il.TextureSpace)
			p.ALUOps = constsALUOps
			p.Constants = n
			k, err := s.Pipeline().Generate(pipeline.GenGeneric, p)
			if err != nil {
				return FigureSpec{}, err
			}
			pts = append(pts, KernelPoint{Card: card, X: float64(n), K: k, W: paperDomain, H: paperDomain})
		}
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// AblationResult is one baseline-versus-ablated comparison.
type AblationResult struct {
	Name     string
	Baseline float64 // seconds
	Ablated  float64 // seconds
	// Opts are the compiler paths the ablated run switched off; zero for
	// the simulated-mechanism rows.
	Opts ilc.Options
	// GPRWritesBase/Ablated report per-thread register-file write traffic,
	// the honest observable of the compiler (forwarding) ablations: peak
	// GPR counts are unchanged for the suite's chain kernels, because the
	// linear scan reuses dead input registers.
	GPRWritesBase, GPRWritesAblated int
	// Err is the failure of the row's base run, else of its ablated run
	// (Run.Failure, so errors.Is sees its kind); nil when both ran.
	Err error
}

// Ratio returns ablated/baseline time.
func (a AblationResult) Ratio() float64 {
	if a.Baseline == 0 {
		return 0
	}
	return a.Ablated / a.Baseline
}

// ablationChain is the compiler ablations' generic chain kernel.
var ablationChain = kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 8, Outputs: 1, ALUFetchRatio: 4.0}

const ablationTitle = "Ablation study (simulated HD 4870): mechanism off vs on"

// ablationRows quantify each modelled mechanism on the RV770 by
// switching it off and re-timing a reference kernel chosen to exercise
// it:
//
//   - clause switching (latency hiding): the Fig. 16 kernel at a single
//     resident wavefront;
//   - burst writes: the Fig. 14 kernel with scattered writes;
//   - tiled texture layout: the Fig. 7 kernel with row-major textures;
//   - PV forwarding and clause temporaries: the generic chain kernel
//     recompiled without them (register-file writes rise).
var ablationRows = []struct {
	name   string
	gen    pipeline.Generator
	params kerngen.Params
	ablate sim.Ablations
	opts   ilc.Options
}{
	{"clause switching (latency hiding)", pipeline.GenRegisterUsage, kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1,
		ALUFetchRatio: 1.0, Space: 8, Step: 6,
	}, sim.Ablations{SingleWavefront: true}, ilc.Options{}},
	{"burst writes", pipeline.GenWriteLatency, kerngen.Params{
		Mode: il.Pixel, Type: il.Float4, Inputs: 8, Outputs: 8, OutSpace: il.GlobalSpace,
	}, sim.Ablations{NoBurstWrites: true}, ilc.Options{}},
	{"tiled texture layout", pipeline.GenALUFetch, kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 16, Outputs: 1, ALUFetchRatio: 0.25,
	}, sim.Ablations{LinearTextures: true}, ilc.Options{}},
	{"PV forwarding", pipeline.GenGeneric, ablationChain, sim.Ablations{}, ilc.Options{NoPVForwarding: true}},
	{"clause temporaries", pipeline.GenGeneric, ablationChain, sim.Ablations{}, ilc.Options{NoClauseTemps: true}},
	{"all forwarding (PV + temps)", pipeline.GenGeneric, ablationChain, sim.Ablations{}, ilc.Options{NoPVForwarding: true, NoClauseTemps: true}},
}

// AblationSpec plans the ablation study as a figure on the HD 4870: one
// series per mechanism, its reference kernel at x=0 as the paper's
// figures launch it and at x=1 with the mechanism switched off
// (KernelPoint.Ablate or Opts). AblationResults folds its runs into the
// study's rows.
func (s *Suite) AblationSpec() (FigureSpec, error) {
	fig := &report.Figure{
		Title:  ablationTitle,
		XLabel: "Mechanism switched off (0 = no, 1 = yes)",
		YLabel: "Time in seconds",
	}
	pts := make([]KernelPoint, 0, 2*len(ablationRows))
	for _, r := range ablationRows {
		k, err := s.Pipeline().Generate(r.gen, r.params)
		if err != nil {
			return FigureSpec{}, err
		}
		base := KernelPoint{Card: Card{Arch: device.RV770, Mode: il.Pixel, Type: r.params.Type},
			Series: r.name, K: k, W: paperDomain, H: paperDomain}
		abl := base
		abl.X, abl.Ablate, abl.Opts = 1, r.ablate, r.opts
		pts = append(pts, base, abl)
	}
	return FigureSpec{Fig: fig, Points: pts}, nil
}

// AblationResults folds the ablation figure's runs, in AblationSpec's
// point order, into one result per mechanism. A row whose base or
// ablated run failed carries that failure in Err; the campaign's failure
// records list the run itself.
func AblationResults(runs []Run) ([]AblationResult, error) {
	if len(runs) != 2*len(ablationRows) {
		return nil, fmt.Errorf("core: ablation study has %d runs, want %d", len(runs), 2*len(ablationRows))
	}
	out := make([]AblationResult, len(ablationRows))
	for i, r := range ablationRows {
		b, a := runs[2*i], runs[2*i+1]
		out[i] = AblationResult{Name: r.name, Baseline: b.Seconds, Ablated: a.Seconds, Opts: r.opts,
			GPRWritesBase: b.GPRWrites, GPRWritesAblated: a.GPRWrites}
		if b.Failed() {
			out[i].Err = b.Failure()
		} else if a.Failed() {
			out[i].Err = a.Failure()
		}
	}
	return out, nil
}

// AblationTable formats an ablation study. The GPR-write columns show
// for the compiler ablations only; a failed row shows FAILED for its
// timings and "-" for its writes.
func AblationTable(results []AblationResult) *report.Table {
	t := &report.Table{
		Title:  ablationTitle,
		Header: []string{"mechanism", "baseline s", "ablated s", "slowdown", "GPR writes base", "GPR writes ablated"},
	}
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.Name, "FAILED", "FAILED", "FAILED", "-", "-")
			continue
		}
		gb, ga := "-", "-"
		if r.Opts != (ilc.Options{}) {
			gb, ga = fmt.Sprintf("%d", r.GPRWritesBase), fmt.Sprintf("%d", r.GPRWritesAblated)
		}
		t.AddRow(r.Name, fmt.Sprintf("%.3f", r.Baseline), fmt.Sprintf("%.3f", r.Ablated),
			fmt.Sprintf("%.2fx", r.Ratio()), gb, ga)
	}
	return t
}
