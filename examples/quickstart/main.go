// Quickstart: open a simulated Radeon HD 4870 (RV770), build the paper's
// generic dependency-chain kernel, compile it to R700-style ISA, execute
// it functionally on a small domain to verify the arithmetic, and time it
// on the full 1024x1024 domain the paper uses — reporting which hardware
// resource (ALU, texture fetch, memory) the kernel is bound by.
package main

import (
	"fmt"
	"log"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/raster"
)

func main() {
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		log.Fatal(err)
	}
	info := dev.Info()
	fmt.Printf("Opened %s (Radeon HD %s): %d ALUs, %d texture units, %d SIMD engines\n\n",
		info.Arch, info.Arch.CardName(), info.ALUs, info.TextureUnits, info.SIMDEngines)

	ctx := dev.CreateContext()

	// The generic micro-benchmark kernel (paper Fig. 3): sample four
	// inputs, fold them into a dependency chain, export the sum. With the
	// ALU count left at the fold minimum the kernel is exactly a sum of
	// its inputs, which the functional check below verifies.
	kernel, err := kerngen.Generic(kerngen.Params{
		Name: "quickstart", Mode: il.Pixel, Type: il.Float,
		Inputs: 4, Outputs: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Generated IL:")
	fmt.Println(il.Assemble(kernel))

	module, err := ctx.LoadModule(il.Seal(kernel))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Compiled ISA (paper Fig. 2 layout):")
	dis, err := module.Disassemble()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dis)
	st, err := module.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Static analysis: %d GPRs, %d ALU bundles, %d fetches, SKA ALU:Fetch %.2f\n\n",
		st.GPRs, st.ALUBundles, st.FetchOps, st.ALUFetchSKA)

	// Functional check on a small domain: the kernel sums its inputs.
	const n = 8
	var inputs []*cal.Resource
	for i := 0; i < 4; i++ {
		r, err := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
		if err != nil {
			log.Fatal(err)
		}
		i := i
		r.Fill(func(x, y, _ int) float32 { return float32((i + 1) * (y*n + x + 1)) })
		inputs = append(inputs, r)
	}
	out, err := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ctx.Launch(module, cal.LaunchConfig{
		Order: raster.PixelOrder(), W: n, H: n, Iterations: 1,
		Inputs: inputs, Outputs: []*cal.Resource{out}, Functional: true,
	}); err != nil {
		log.Fatal(err)
	}
	got, _ := out.At(3, 2, 0)
	want := float32((1 + 2 + 3 + 4) * (2*n + 3 + 1))
	fmt.Printf("Functional check at (3,2): got %v, want %v\n\n", got, want)
	if got != want {
		log.Fatal("functional execution mismatch")
	}

	// Timed run over the paper's domain, 5000 iterations.
	ev, err := ctx.Launch(module, cal.LaunchConfig{
		Order: raster.PixelOrder(), W: 1024, H: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := ev.Result
	fmt.Printf("Timed 1024x1024 x %d iterations: %.3f s\n", 5000, ev.ElapsedSeconds())
	fmt.Printf("  occupancy: %d wavefronts/SIMD (GPR-limited at %d GPRs)\n", res.WavesPerSIMD, res.GPRs)
	fmt.Printf("  texture L1 hit rate: %.3f\n", res.HitRate)
	fmt.Printf("  bottleneck: %s\n", ev.Bottleneck())
}
