// Convolution: a 5-tap horizontal Gaussian blur written against the
// suite's stack — the tap images are bound as five shifted input
// resources and the filter weights live in the constant buffer, which
// costs no registers and no fetch traffic (see `amdmb consts`). The
// example verifies the arithmetic functionally, asks the suite for the
// kernel's bottleneck, lets the block-size tuner pick the best compute
// layout, and prints the paper's optimization advice.
package main

import (
	"fmt"
	"log"
	"math"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

var weights = [5]float32{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}

// convKernel: out = sum_i w[i] * tap[i], taps as inputs, weights as
// constants, accumulation as a dependency chain.
func convKernel(mode il.ShaderMode) (*il.Kernel, error) {
	outSpace := il.TextureSpace
	if mode == il.Compute {
		outSpace = il.GlobalSpace
	}
	k := &il.Kernel{
		Name: "gauss5", Mode: mode, Type: il.Float,
		NumInputs: 5, NumOutputs: 1, NumConsts: 5,
		OutSpace: outSpace,
	}
	r := il.Reg(0)
	for i := 0; i < 5; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: r, SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
		r++
	}
	// acc = tap0*w0; acc += tap_i*w_i (weighted taps via mulc, then add).
	k.Code = append(k.Code, il.Instr{Op: il.OpMulC, Dst: r, SrcA: 0, SrcB: il.NoReg, Res: 0})
	acc := r
	r++
	for i := 1; i < 5; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpMulC, Dst: r, SrcA: il.Reg(i), SrcB: il.NoReg, Res: i})
		w := r
		r++
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: w, Res: -1})
		acc = r
		r++
	}
	storeOp := il.OpExport
	if outSpace == il.GlobalSpace {
		storeOp = il.OpGlobalStore
	}
	k.Code = append(k.Code, il.Instr{Op: storeOp, Dst: il.NoReg, SrcA: acc, SrcB: il.NoReg, Res: 0})
	return k, k.Validate()
}

func main() {
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		log.Fatal(err)
	}
	ctx := dev.CreateContext()

	// Functional verification on a small image: taps are the source image
	// shifted by -2..2 in x (clamped), weights the binomial Gaussian.
	pix, err := convKernel(il.Pixel)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ctx.LoadModule(il.Seal(pix))
	if err != nil {
		log.Fatal(err)
	}
	const n = 16
	src := func(x, y int) float32 { return float32(x*3 + y*7) }
	clampedSrc := func(x, y int) float32 {
		if x < 0 {
			x = 0
		}
		if x >= n {
			x = n - 1
		}
		return src(x, y)
	}
	var ins []*cal.Resource
	for i := 0; i < 5; i++ {
		r, err := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
		if err != nil {
			log.Fatal(err)
		}
		off := i - 2
		r.Fill(func(x, y, _ int) float32 { return clampedSrc(x+off, y) })
		ins = append(ins, r)
	}
	out, err := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	if err != nil {
		log.Fatal(err)
	}
	consts := make([][4]float32, 5)
	for i, w := range weights {
		consts[i] = [4]float32{w, w, w, w}
	}
	if _, err := ctx.Launch(m, cal.LaunchConfig{
		Order: raster.PixelOrder(), W: n, H: n, Iterations: 1,
		Inputs: ins, Outputs: []*cal.Resource{out},
		Constants: consts, Functional: true,
	}); err != nil {
		log.Fatal(err)
	}
	// Verify against a CPU reference at one pixel.
	x, y := 7, 3
	var ref float32
	for i := 0; i < 5; i++ {
		ref += weights[i] * clampedSrc(x+i-2, y)
	}
	got, _ := out.At(x, y, 0)
	fmt.Printf("Gaussian blur at (%d,%d): GPU %.4f vs reference %.4f\n\n", x, y, got, ref)
	if math.Abs(float64(got-ref)) > 1e-3 {
		log.Fatal("functional convolution mismatch")
	}

	// Timing and diagnosis on the full domain.
	s := core.NewSuite()
	card := core.Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	st, err := m.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Static analysis: %d GPRs, %d ALU bundles, %d fetches, SKA ALU:Fetch %.2f\n",
		st.GPRs, st.ALUBundles, st.FetchOps, st.ALUFetchSKA)

	ev, err := ctx.Launch(m, cal.LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024})
	if err != nil {
		log.Fatal(err)
	}
	run := core.Run{
		Card: card, Seconds: ev.ElapsedSeconds(),
		GPRs: ev.Result.GPRs, Waves: ev.Result.WavesPerSIMD,
		HitRate: ev.Result.HitRate, Bottleneck: ev.Bottleneck().String(),
	}
	fmt.Printf("Pixel mode, 1024x1024 x 5000: %.3f s\n\n", ev.ElapsedSeconds())
	fmt.Print(core.AdviseString(run))
	fmt.Println()

	// Compute mode: let the tuner pick the block shape.
	cmp, err := convKernel(il.Compute)
	if err != nil {
		log.Fatal(err)
	}
	ccard := core.Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float}
	tune, err := s.TuneBlockSize(ccard, cmp, 1024, 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Compute-mode block-size tuning:")
	fmt.Print(core.FormatBlockTune(tune))
}
