// Futurechip: the paper closes by claiming the suite "can be applied to
// both past and future AMD GPU generations" and names adapting to next
// generation hardware changes as future work. This example exercises that
// portability: it defines a hypothetical successor chip — twice the RV870's
// SIMD engines, a larger texture L1, faster GDDR5 — opens it through the
// same CAL API, and reruns two of the suite's experiments to see which
// bottlenecks the imagined hardware would move.
package main

import (
	"fmt"
	"log"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/report"
)

// futureSpec sketches an "RV970": Cypress doubled, with the cache
// regression of the RV870 undone (back to 16KB, keeping the long lines).
func futureSpec() device.Spec {
	s := device.Lookup(device.RV870)
	s.Arch = device.Arch(3) // not one of the three known generations
	s.SIMDEngines = 40
	s.ALUs = 3200
	s.TextureUnits = 160
	s.CoreClockMHz = 900
	s.MemClockMHz = 1500
	s.MemChannels = 16
	s.L1CacheBytes = 16 * 1024
	s.L1Ways = 8
	return s
}

func main() {
	spec := futureSpec()
	if err := spec.Validate(); err != nil {
		log.Fatalf("future chip spec invalid: %v", err)
	}
	devNew, err := cal.OpenCustomDevice(spec)
	if err != nil {
		log.Fatal(err)
	}
	devOld, err := cal.OpenDevice(device.RV870)
	if err != nil {
		log.Fatal(err)
	}
	ctxNew := devNew.CreateContext()
	ctxOld := devOld.CreateContext()

	fmt.Printf("Hypothetical successor: %d SIMD engines, %d ALUs, %d texture units, %d MHz core\n\n",
		spec.SIMDEngines, spec.ALUs, spec.TextureUnits, spec.CoreClockMHz)

	// Experiment 1: where does the ALU:Fetch crossover move?
	t := &report.Table{
		Title:  "ALU:Fetch sweep (16 inputs, float4, pixel, 1024x1024): 5870 vs successor",
		Header: []string{"ratio", "5870 s", "successor s", "5870 bound", "successor bound"},
	}
	for _, ratio := range []float64{0.25, 1, 2, 4, 6, 8} {
		k, err := kerngen.ALUFetch(kerngen.Params{
			Mode: il.Pixel, Type: il.Float4, Inputs: 16, Outputs: 1, ALUFetchRatio: ratio,
		})
		if err != nil {
			log.Fatal(err)
		}
		mOld, err := ctxOld.LoadModule(k)
		if err != nil {
			log.Fatal(err)
		}
		mNew, err := ctxNew.LoadModule(k)
		if err != nil {
			log.Fatal(err)
		}
		evOld, err := ctxOld.Launch(mOld, cal.LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024})
		if err != nil {
			log.Fatal(err)
		}
		evNew, err := ctxNew.Launch(mNew, cal.LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.3f", evOld.ElapsedSeconds()), fmt.Sprintf("%.3f", evNew.ElapsedSeconds()),
			evOld.Bottleneck().String(), evNew.Bottleneck().String())
	}
	fmt.Println(t.Format())

	// Experiment 2: does the register-pressure sweet spot move?
	t2 := &report.Table{
		Title:  "Register pressure (64 inputs, space 8, float): 5870 vs successor",
		Header: []string{"step", "GPRs", "5870 s", "successor s"},
	}
	for step := 0; step <= 6; step += 2 {
		k, err := kerngen.RegisterUsage(kerngen.Params{
			Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1,
			ALUFetchRatio: 1.0, Space: 8, Step: step,
		})
		if err != nil {
			log.Fatal(err)
		}
		mOld, err := ctxOld.LoadModule(k)
		if err != nil {
			log.Fatal(err)
		}
		mNew, err := ctxNew.LoadModule(k)
		if err != nil {
			log.Fatal(err)
		}
		evOld, err := ctxOld.Launch(mOld, cal.LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024})
		if err != nil {
			log.Fatal(err)
		}
		evNew, err := ctxNew.Launch(mNew, cal.LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024})
		if err != nil {
			log.Fatal(err)
		}
		t2.AddRow(fmt.Sprintf("%d", step), fmt.Sprintf("%d", mOld.Program().GPRCount),
			fmt.Sprintf("%.3f", evOld.ElapsedSeconds()), fmt.Sprintf("%.3f", evNew.ElapsedSeconds()))
	}
	fmt.Println(t2.Format())

	fmt.Println("The suite ports unchanged: only the device table differs, as the paper intends.")
}
