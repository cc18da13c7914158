// Futurechip: the paper closes by claiming the suite "can be applied to
// both past and future AMD GPU generations" and names adapting to next
// generation hardware changes as future work. This example exercises that
// portability: it defines a hypothetical successor chip — twice the RV870's
// SIMD engines, a larger texture L1, faster GDDR5 — opens it through the
// same suite runner, and reruns two of the suite's experiments to see which
// bottlenecks the imagined hardware would move.
package main

import (
	"context"
	"fmt"
	"log"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
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
	fmt.Printf("Hypothetical successor: %d SIMD engines, %d ALUs, %d texture units, %d MHz core\n\n",
		spec.SIMDEngines, spec.ALUs, spec.TextureUnits, spec.CoreClockMHz)
	s := core.NewSuite()

	// Experiment 1: where does the ALU:Fetch crossover move?
	t := &report.Table{
		Title:  "ALU:Fetch sweep (16 inputs, float4, pixel, 1024x1024): 5870 vs successor",
		Header: []string{"ratio", "5870 s", "successor s", "5870 bound", "successor bound"},
	}
	ratios := []float64{0.25, 1, 2, 4, 6, 8}
	runs := timeBoth(s, spec, len(ratios), func(i int) (*il.Kernel, error) {
		return kerngen.ALUFetch(kerngen.Params{
			Mode: il.Pixel, Type: il.Float4, Inputs: 16, Outputs: 1, ALUFetchRatio: ratios[i],
		})
	})
	for i, r := range runs {
		t.AddRow(fmt.Sprintf("%.2f", ratios[i]),
			fmt.Sprintf("%.3f", r[0].Seconds), fmt.Sprintf("%.3f", r[1].Seconds),
			r[0].Bottleneck, r[1].Bottleneck)
	}
	fmt.Println(t.Format())

	// Experiment 2: does the register-pressure sweet spot move?
	t2 := &report.Table{
		Title:  "Register pressure (64 inputs, space 8, float): 5870 vs successor",
		Header: []string{"step", "GPRs", "5870 s", "successor s"},
	}
	steps := []int{0, 2, 4, 6}
	runs = timeBoth(s, spec, len(steps), func(i int) (*il.Kernel, error) {
		return kerngen.RegisterUsage(kerngen.Params{
			Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1,
			ALUFetchRatio: 1.0, Space: 8, Step: steps[i],
		})
	})
	for i, r := range runs {
		t2.AddRow(fmt.Sprintf("%d", steps[i]), fmt.Sprintf("%d", r[0].GPRs),
			fmt.Sprintf("%.3f", r[0].Seconds), fmt.Sprintf("%.3f", r[1].Seconds))
	}
	fmt.Println(t2.Format())

	fmt.Println("The suite ports unchanged: only the device table differs, as the paper intends.")
}

// timeBoth times n pixel kernels, built by gen, at 1024x1024 on the 5870
// and on the successor as one suite sweep, and returns each kernel's two
// runs in that order. The successor is just another device spec to the
// suite, which validates it before anything launches.
func timeBoth(s *core.Suite, spec device.Spec, n int, gen func(i int) (*il.Kernel, error)) [][2]core.Run {
	var pts []core.KernelPoint
	for i := 0; i < n; i++ {
		k, err := gen(i)
		if err != nil {
			log.Fatal(err)
		}
		sk := il.Seal(k)
		pts = append(pts,
			core.KernelPoint{Card: core.Card{Arch: device.RV870, Mode: il.Pixel, Type: k.Type}, K: sk, W: 1024, H: 1024},
			core.KernelPoint{Card: core.Card{Arch: spec.Arch, Mode: il.Pixel, Type: k.Type}, K: sk, W: 1024, H: 1024, Device: &spec})
	}
	runs, err := s.RunKernelPoints(context.Background(), pts, core.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	out := make([][2]core.Run, n)
	for i, r := range runs {
		if r.Failed() {
			log.Fatal(r.Err)
		}
		out[i/2][i%2] = r
	}
	return out
}
