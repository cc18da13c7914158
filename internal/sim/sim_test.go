package sim

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/raster"
)

// buildChain compiles the generic Fig. 3 kernel for tests.
func buildChain(t *testing.T, spec device.Spec, inputs, aluOps int, mode il.ShaderMode, dt il.DataType, inSp, outSp il.MemSpace, outs int) *isa.Program {
	t.Helper()
	k := &il.Kernel{
		Name: "t", Mode: mode, Type: dt,
		NumInputs: inputs, NumOutputs: outs,
		InputSpace: inSp, OutSpace: outSp,
	}
	fetchOp := il.OpSample
	if inSp == il.GlobalSpace {
		fetchOp = il.OpGlobalLoad
	}
	r := il.Reg(0)
	for i := 0; i < inputs; i++ {
		k.Code = append(k.Code, il.Instr{Op: fetchOp, Dst: r, SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
		r++
	}
	acc := il.Reg(0)
	emitted := 0
	for i := 1; i < inputs && emitted < aluOps; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: il.Reg(i), Res: -1})
		acc = r
		r++
		emitted++
	}
	prev, prev2 := acc, acc
	if int(acc) >= 1 {
		prev2 = acc - 1
	}
	for emitted < aluOps {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: prev, SrcB: prev2, Res: -1})
		prev2, prev = prev, r
		r++
		emitted++
	}
	storeOp := il.OpExport
	if outSp == il.GlobalSpace {
		storeOp = il.OpGlobalStore
	}
	for o := 0; o < outs; o++ {
		k.Code = append(k.Code, il.Instr{Op: storeOp, Dst: il.NoReg, SrcA: prev, SrcB: il.NoReg, Res: o})
	}
	p, err := ilc.Compile(k, spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runQuick(t *testing.T, spec device.Spec, p *isa.Program, order raster.Order) Result {
	t.Helper()
	r, err := Run(Config{Spec: spec, Prog: p, Order: order, W: 1024, H: 1024, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidatesConfig(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 4, 16, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	if _, err := Run(Config{Spec: spec, Prog: nil, Order: raster.PixelOrder(), W: 64, H: 64}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 0, H: 64}); err == nil {
		t.Error("zero domain accepted")
	}
	if _, err := Run(Config{Spec: spec, Prog: p, Order: raster.Naive64x1(), W: 64, H: 64}); err == nil {
		t.Error("pixel program with compute order accepted")
	}
	if _, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 64, H: 64, Iterations: -1}); err == nil {
		t.Error("negative iteration count accepted")
	}
}

func TestComputeRejectedOnRV670(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 4, 16, il.Compute, il.Float, il.TextureSpace, il.GlobalSpace, 1)
	if _, err := Run(Config{Spec: device.Lookup(device.RV670), Prog: p, Order: raster.Naive64x1(), W: 64, H: 64}); err == nil {
		t.Error("compute mode on RV670 accepted")
	}
}

func TestMoreALUOpsMoreTime(t *testing.T) {
	spec := device.Lookup(device.RV770)
	var prev uint64
	for _, ops := range []int{16, 64, 256, 1024} {
		p := buildChain(t, spec, 8, ops, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
		r := runQuick(t, spec, p, raster.PixelOrder())
		if r.Cycles < prev {
			t.Fatalf("cycles decreased when ALU ops grew to %d", ops)
		}
		prev = r.Cycles
	}
}

func TestBottleneckTransitions(t *testing.T) {
	// Few ALU ops on many fetches: fetch bound. Many ALU ops: ALU bound.
	spec := device.Lookup(device.RV770)
	fetchy := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r := runQuick(t, spec, fetchy, raster.PixelOrder())
	if r.Bottleneck != BottleneckFetch {
		t.Errorf("16-input / 15-op kernel bottleneck = %v, want fetch", r.Bottleneck)
	}
	aluey := buildChain(t, spec, 2, 512, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r = runQuick(t, spec, aluey, raster.PixelOrder())
	if r.Bottleneck != BottleneckALU {
		t.Errorf("2-input / 512-op kernel bottleneck = %v, want ALU", r.Bottleneck)
	}
}

func TestWriteBoundKernel(t *testing.T) {
	// Monte-Carlo shape (Section IV-C): few inputs, several global writes.
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 2, 8, il.Pixel, il.Float4, il.TextureSpace, il.GlobalSpace, 8)
	r := runQuick(t, spec, p, raster.PixelOrder())
	if r.Bottleneck != BottleneckMemory {
		t.Errorf("8-output kernel bottleneck = %v, want memory", r.Bottleneck)
	}
}

func TestOccupancyFollowsGPRs(t *testing.T) {
	spec := device.Lookup(device.RV770)
	small := buildChain(t, spec, 4, 32, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	big := buildChain(t, spec, 64, 32, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	rs := runQuick(t, spec, small, raster.PixelOrder())
	rb := runQuick(t, spec, big, raster.PixelOrder())
	if !(rs.WavesPerSIMD > rb.WavesPerSIMD) {
		t.Fatalf("4-input kernel occupancy %d not above 64-input kernel's %d", rs.WavesPerSIMD, rb.WavesPerSIMD)
	}
	if rb.WavesPerSIMD < 1 {
		t.Fatal("occupancy below 1")
	}
}

func TestIterationsScaleLinearly(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 8, 32, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r1, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r10.Cycles != 10*r1.Cycles {
		t.Fatalf("10 iterations = %d cycles, want exactly 10x %d", r10.Cycles, r1.Cycles)
	}
}

func TestDefaultIterations(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 4, 8, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r0, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 256, H: 256})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 256, H: 256, Iterations: DefaultIterations})
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cycles != r1.Cycles {
		t.Fatal("zero iterations did not default to 5000")
	}
}

func TestGenerationOrdering(t *testing.T) {
	// Same fetch-bound kernel: newer generations (more SIMDs) finish the
	// same domain faster (Fig. 11's per-chip ordering).
	var times []float64
	for _, a := range []device.Arch{device.RV670, device.RV770, device.RV870} {
		spec := device.Lookup(a)
		p := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
		r := runQuick(t, spec, p, raster.PixelOrder())
		times = append(times, r.Seconds)
	}
	if !(times[0] > times[1] && times[1] > times[2]) {
		t.Fatalf("per-generation times not decreasing: %v", times)
	}
}

func TestPixelFasterThanNaiveCompute(t *testing.T) {
	// Fig. 7: compute mode with the naive 64x1 block is slower than pixel
	// mode for the same fetch-bound kernel.
	spec := device.Lookup(device.RV770)
	pp := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	pc := buildChain(t, spec, 16, 15, il.Compute, il.Float, il.TextureSpace, il.GlobalSpace, 1)
	rp := runQuick(t, spec, pp, raster.PixelOrder())
	rc := runQuick(t, spec, pc, raster.Naive64x1())
	if !(rp.Seconds < rc.Seconds) {
		t.Fatalf("pixel %.3fs not faster than 64x1 compute %.3fs", rp.Seconds, rc.Seconds)
	}
}

func TestBlock4x16FasterThan64x1(t *testing.T) {
	// Fig. 8 vs Fig. 7 in compute mode.
	spec := device.Lookup(device.RV870)
	p := buildChain(t, spec, 16, 15, il.Compute, il.Float4, il.TextureSpace, il.GlobalSpace, 1)
	r64 := runQuick(t, spec, p, raster.Naive64x1())
	r416 := runQuick(t, spec, p, raster.Block4x16())
	if !(r416.Seconds < r64.Seconds) {
		t.Fatalf("4x16 %.3fs not faster than 64x1 %.3fs", r416.Seconds, r64.Seconds)
	}
}

func TestCountersConservation(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 8, 64, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r := runQuick(t, spec, p, raster.PixelOrder())
	c := r.Counters
	if c.ALU == 0 || c.TexIssue == 0 || c.TexFill == 0 {
		t.Fatalf("busy counters missing activity: %+v", c)
	}
	// The only non-fill DRAM traffic is the streaming store's writeback;
	// one float output per wavefront is a trickle next to the fills.
	if c.MemGlobal >= c.TexFill {
		t.Fatalf("store writeback (%d) out of proportion to fills (%d)", c.MemGlobal, c.TexFill)
	}
	if c.Export == 0 {
		t.Fatalf("streaming store kernel accrued no export busy: %+v", c)
	}
}

func TestBottleneckString(t *testing.T) {
	if BottleneckALU.String() != "ALU" || BottleneckFetch.String() != "fetch" ||
		BottleneckMemory.String() != "memory" || Bottleneck(9).String() != "?" {
		t.Error("bottleneck names wrong")
	}
}

func TestRV670GlobalReadMuchSlower(t *testing.T) {
	// Fig. 12's headline: the RV670's global memory reads are drastically
	// slower than its texture fetches; on the RV770 they are comparable
	// to the naive compute texture path.
	spec := device.Lookup(device.RV670)
	tex := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	glob := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.GlobalSpace, il.TextureSpace, 1)
	rt := runQuick(t, spec, tex, raster.PixelOrder())
	rg := runQuick(t, spec, glob, raster.PixelOrder())
	if !(rg.Seconds > 1.2*rt.Seconds) {
		t.Fatalf("RV670 global read %.3fs not well above texture %.3fs", rg.Seconds, rt.Seconds)
	}
}

func TestAblationSingleWavefrontSlower(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 16, 64, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	base, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1,
		Ablate: Ablations{SingleWavefront: true}})
	if err != nil {
		t.Fatal(err)
	}
	if abl.WavesPerSIMD != 1 {
		t.Fatalf("ablated occupancy = %d, want 1", abl.WavesPerSIMD)
	}
	if !(abl.Cycles > 2*base.Cycles) {
		t.Fatalf("no latency-hiding benefit: %d vs %d cycles", abl.Cycles, base.Cycles)
	}
}

func TestAblationNoBurstWritesSlower(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 2, 8, il.Pixel, il.Float4, il.TextureSpace, il.GlobalSpace, 8)
	base, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1,
		Ablate: Ablations{NoBurstWrites: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !(abl.Cycles > base.Cycles) {
		t.Fatalf("scattered writes not slower: %d vs %d cycles", abl.Cycles, base.Cycles)
	}
}

func TestAblationLinearTexturesNotFaster(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	base, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 1024, H: 1024, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 1024, H: 1024, Iterations: 1,
		Ablate: Ablations{LinearTextures: true}})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Cycles < base.Cycles {
		t.Fatalf("row-major textures beat the tiled layout: %d vs %d cycles", abl.Cycles, base.Cycles)
	}
}

func TestL2FillCounterPopulated(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 16, 15, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 1024, H: 1024, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.L2Fill == 0 {
		t.Fatal("texture kernel accrued no L2 fill occupancy")
	}
}

func TestBatchQuantizationStaircase(t *testing.T) {
	// Fig. 15's wobble mechanism: whole-domain time moves in dispatch
	// batches of (waves/SIMD x SIMDs) wavefronts, so growing the domain
	// by one tile does not always grow the time.
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 8, 320, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	var cycles []uint64
	for d := 256; d <= 512; d += 8 {
		r, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: d, H: d, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, r.Cycles)
	}
	if cycles[0] >= cycles[len(cycles)-1] {
		t.Fatal("time did not grow over the domain sweep")
	}
	// Quantization shows as non-uniform growth: the per-step increment
	// jumps when a domain increment spills into a new dispatch batch.
	minInc, maxInc := uint64(1<<62), uint64(0)
	for i := 1; i < len(cycles); i++ {
		inc := cycles[i] - cycles[i-1]
		if inc < minInc {
			minInc = inc
		}
		if inc > maxInc {
			maxInc = inc
		}
	}
	if maxInc < 2*minInc {
		t.Fatalf("growth too uniform for batch quantization: increments in [%d, %d]", minInc, maxInc)
	}
}

func TestLaunchOverheadFloor(t *testing.T) {
	// A tiny domain is dominated by the kernel invocation overhead the
	// paper works around by choosing realistic domains.
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 2, 1, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	r, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 8, H: 8, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles < LaunchOverheadCycles {
		t.Fatalf("cycles %d below the launch overhead %d", r.Cycles, LaunchOverheadCycles)
	}
}

func TestSingleWavefrontHalvesALUThroughput(t *testing.T) {
	// Section II-A: one wavefront fills only one of the two thread
	// processor slots, so the ALU pipeline runs at half throughput.
	spec := device.Lookup(device.RV770)
	p := buildChain(t, spec, 2, 256, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	base, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 256, H: 256, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(Config{Spec: spec, Prog: p, Order: raster.PixelOrder(), W: 256, H: 256, Iterations: 1,
		Ablate: Ablations{SingleWavefront: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Per-batch ALU busy doubles per wavefront: the single-wave batch has
	// 1/Nth the waves, so compare per-wave occupancy.
	perWaveBase := float64(base.Counters.ALU) / float64(base.WavesPerSIMD)
	perWaveSingle := float64(single.Counters.ALU) / float64(single.WavesPerSIMD)
	if perWaveSingle != 2*perWaveBase {
		t.Fatalf("single-wave ALU occupancy %v, want exactly 2x %v", perWaveSingle, perWaveBase)
	}
}
