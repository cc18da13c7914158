// Matmul: the paper observes (Section IV-B) that the StreamSDK's matrix
// multiplication samples are fetch bound — too few ALU operations per
// fetch to hide fetch latency — and prescribes the optimizations the
// micro-benchmark suite points at: raise the ALU:Fetch ratio by computing
// more per fetch, reduce register pressure to run more wavefronts, and in
// compute mode pick a two-dimensional block size to lift the cache hit
// rate.
//
// This example builds a matmul-shaped inner-loop kernel (a tile of dot
// products: paired fetches from A and B feeding multiply-accumulate
// chains), confirms the suite classifies it as fetch bound, then applies
// each prescription and measures the effect.
package main

import (
	"fmt"
	"log"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/report"
)

// matmulKernel builds the inner-product microkernel: k tiles from A and k
// tiles from B are fetched and folded into acc += a*b chains. unroll > 1
// mimics computing several output elements per thread (more ALU work per
// fetched tile, the classic matmul optimization).
func matmulKernel(mode il.ShaderMode, k, unroll int) (*il.Kernel, error) {
	outSpace := il.TextureSpace
	if mode == il.Compute {
		outSpace = il.GlobalSpace
	}
	kn := &il.Kernel{
		Name: fmt.Sprintf("matmul_k%d_u%d", k, unroll),
		Mode: mode, Type: il.Float4,
		NumInputs: 2 * k, NumOutputs: 1,
		InputSpace: il.TextureSpace, OutSpace: outSpace,
	}
	r := il.Reg(0)
	for i := 0; i < 2*k; i++ {
		kn.Code = append(kn.Code, il.Instr{Op: il.OpSample, Dst: r, SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
		r++
	}
	// acc = a0*b0; acc += ai*bi ... repeated per unrolled output element.
	prods := make([]il.Reg, 0, k)
	for i := 0; i < k; i++ {
		kn.Code = append(kn.Code, il.Instr{Op: il.OpMul, Dst: r, SrcA: il.Reg(i), SrcB: il.Reg(k + i), Res: -1})
		prods = append(prods, r)
		r++
	}
	acc := prods[0]
	for i := 1; i < k; i++ {
		kn.Code = append(kn.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: prods[i], Res: -1})
		acc = r
		r++
	}
	// Unrolled outputs reuse the fetched tiles for more ALU work.
	for u := 1; u < unroll; u++ {
		prev := acc
		for i := 0; i < k; i++ {
			kn.Code = append(kn.Code, il.Instr{Op: il.OpMul, Dst: r, SrcA: prev, SrcB: il.Reg((u + i) % (2 * k)), Res: -1})
			prev = r
			r++
			kn.Code = append(kn.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: prev, SrcB: acc, Res: -1})
			prev = r
			r++
		}
		acc = prev
	}
	kn.Code = append(kn.Code, il.Instr{Op: storeOp(outSpace), Dst: il.NoReg, SrcA: acc, SrcB: il.NoReg, Res: 0})
	return kn, kn.Validate()
}

func storeOp(space il.MemSpace) il.Opcode {
	if space == il.GlobalSpace {
		return il.OpGlobalStore
	}
	return il.OpExport
}

func run(ctx *cal.Context, kn *il.Kernel, order raster.Order) (*cal.Event, error) {
	m, err := ctx.LoadModule(il.Seal(kn))
	if err != nil {
		return nil, err
	}
	return ctx.Launch(m, cal.LaunchConfig{Order: order, W: 1024, H: 1024})
}

func main() {
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		log.Fatal(err)
	}
	ctx := dev.CreateContext()

	t := &report.Table{
		Title:  "Matrix-multiply microkernel on the simulated HD 4870 (1024x1024, 5000 iterations)",
		Header: []string{"variant", "seconds", "bottleneck", "GPRs", "waves/SIMD", "L1 hit"},
	}
	add := func(name string, ev *cal.Event) {
		r := ev.Result
		t.AddRow(name, fmt.Sprintf("%.3f", ev.ElapsedSeconds()), ev.Bottleneck().String(),
			fmt.Sprintf("%d", r.GPRs), fmt.Sprintf("%d", r.WavesPerSIMD), fmt.Sprintf("%.3f", r.HitRate))
	}

	// Baseline: 8-deep dot product, one output element per thread,
	// pixel shader mode — the StreamSDK sample's shape.
	base, err := matmulKernel(il.Pixel, 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := run(ctx, base, raster.PixelOrder())
	if err != nil {
		log.Fatal(err)
	}
	add("baseline (pixel)", ev)
	baseline := ev.ElapsedSeconds()
	if ev.Bottleneck().String() != "fetch" {
		log.Fatalf("expected the matmul microkernel to be fetch bound, got %s", ev.Bottleneck())
	}

	// Prescription 1: more ALU work per fetch (unroll outputs).
	for _, u := range []int{2, 4} {
		kn, err := matmulKernel(il.Pixel, 8, u)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := run(ctx, kn, raster.PixelOrder())
		if err != nil {
			log.Fatal(err)
		}
		add(fmt.Sprintf("unroll x%d (pixel)", u), ev)
	}

	// Prescription 2 (compute mode): the naive 64x1 block versus a 4x16
	// block — the cache-hit-rate optimization of Figs. 7/8.
	ck, err := matmulKernel(il.Compute, 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	ev64, err := run(ctx, ck, raster.Naive64x1())
	if err != nil {
		log.Fatal(err)
	}
	add("compute, 64x1 block", ev64)
	ev416, err := run(ctx, ck, raster.Block4x16())
	if err != nil {
		log.Fatal(err)
	}
	add("compute, 4x16 block", ev416)

	fmt.Print(t.Format())
	fmt.Println()
	fmt.Printf("The suite's diagnosis: the baseline is fetch bound at %.3f s.\n", baseline)
	fmt.Printf("Unrolling adds ALU work at no time cost — the fetch-bound kernel had idle\n")
	fmt.Printf("ALU headroom, so computing more per fetched tile is free (Section IV-B).\n")
	fmt.Printf("In compute mode the 4x16 block replaces the 64x1 walk's scattered DRAM\n")
	fmt.Printf("row activations with contiguous tile fills, cutting time from %.3f s to %.3f s.\n",
		ev64.ElapsedSeconds(), ev416.ElapsedSeconds())
}
