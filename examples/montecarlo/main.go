// Montecarlo: the paper notes (Section IV-C) that the StreamSDK's Monte
// Carlo sample contains kernels that are global-write bound, and that such
// kernels have headroom for additional ALU (or fetch) instructions at no
// cost until the bound flips from write to ALU.
//
// This example builds a Monte-Carlo-shaped kernel — a small seed input, a
// multiply-add recurrence standing in for the path simulation, and several
// float4 global-memory outputs (the simulated paths) — confirms the suite
// classifies it as memory (write) bound, then adds ALU work until the
// bottleneck flips, locating the free-compute headroom the paper promises.
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

// monteCarloKernel: 2 seed inputs, `steps` recurrence steps, `paths`
// global float4 outputs each receiving a distinct point of the chain.
func monteCarloKernel(steps, paths int) (*il.Kernel, error) {
	k := &il.Kernel{
		Name: fmt.Sprintf("mc_s%d_p%d", steps, paths),
		Mode: il.Compute, Type: il.Float4,
		NumInputs: 2, NumOutputs: paths,
		InputSpace: il.TextureSpace, OutSpace: il.GlobalSpace,
	}
	r := il.Reg(0)
	k.Code = append(k.Code,
		il.Instr{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
		il.Instr{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
	)
	r = 2
	acc, mul := il.Reg(0), il.Reg(1)
	tails := make([]il.Reg, 0, paths)
	for s := 0; s < steps; s++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpMul, Dst: r, SrcA: acc, SrcB: mul, Res: -1})
		prod := r
		r++
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: prod, SrcB: acc, Res: -1})
		acc = r
		r++
		if len(tails) < paths {
			tails = append(tails, acc)
		}
	}
	for len(tails) < paths {
		tails = append(tails, acc)
	}
	for p := 0; p < paths; p++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpGlobalStore, Dst: il.NoReg, SrcA: tails[p], SrcB: il.NoReg, Res: p})
	}
	return k, k.Validate()
}

func main() {
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		log.Fatal(err)
	}
	ctx := dev.CreateContext()

	t := &report.Table{
		Title:  "Monte Carlo path-writing microkernel on the simulated HD 4870 (float4, global writes)",
		Header: []string{"recurrence steps", "paths (outputs)", "seconds", "bottleneck"},
	}
	run := func(steps, paths int) *cal.Event {
		k, err := monteCarloKernel(steps, paths)
		if err != nil {
			log.Fatal(err)
		}
		m, err := ctx.LoadModule(il.Seal(k))
		if err != nil {
			log.Fatal(err)
		}
		ev, err := ctx.Launch(m, cal.LaunchConfig{Order: raster.Naive64x1(), W: 1024, H: 1024})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(fmt.Sprintf("%d", steps), fmt.Sprintf("%d", paths),
			fmt.Sprintf("%.3f", ev.ElapsedSeconds()), ev.Bottleneck().String())
		return ev
	}

	// The path writer: a short recurrence, eight written paths.
	base := run(8, 8)
	if base.Bottleneck().String() != "memory" {
		log.Fatalf("expected the Monte Carlo kernel to be write bound, got %s", base.Bottleneck())
	}

	// The paper's headroom claim: add ALU work until the bound flips.
	flipped := -1
	var lastSeconds float64 = base.ElapsedSeconds()
	for _, steps := range []int{64, 128, 256, 512, 1024} {
		ev := run(steps, 8)
		if flipped < 0 && ev.Bottleneck().String() == "ALU" {
			flipped = steps
		}
		lastSeconds = ev.ElapsedSeconds()
	}

	fmt.Print(t.Format())
	fmt.Println()
	fmt.Printf("Write bound at 8 recurrence steps (%.3f s).\n", base.ElapsedSeconds())
	if flipped > 0 {
		fmt.Printf("The bottleneck flips to ALU at about %d steps — everything below that\n", flipped)
		fmt.Printf("is free compute headroom, as the paper's Section IV-C argues.\n")
	} else {
		fmt.Printf("Still write bound at 1024 steps (%.3f s).\n", lastSeconds)
	}
}
