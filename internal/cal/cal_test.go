package cal

import (
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

func openCtx(t *testing.T, arch device.Arch) *Context {
	t.Helper()
	d, err := OpenDevice(arch)
	if err != nil {
		t.Fatal(err)
	}
	return d.CreateContext()
}

func sumKernel(t *testing.T, inputs int) *il.Sealed {
	t.Helper()
	k, err := kerngen.Generic(kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: inputs, Outputs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return il.Seal(k)
}

func TestOpenDevice(t *testing.T) {
	d, err := OpenDevice(device.RV870)
	if err != nil {
		t.Fatal(err)
	}
	if d.Info().Arch != device.RV870 {
		t.Fatal("wrong device")
	}
}

func TestOpenCustomDeviceValidates(t *testing.T) {
	spec := device.Lookup(device.RV770)
	spec.SIMDEngines = 0
	if _, err := OpenCustomDevice(spec); err == nil {
		t.Fatal("broken custom spec accepted")
	}
	spec = device.Lookup(device.RV770)
	spec.Arch = device.Arch(7) // a "future generation" chip
	if _, err := OpenCustomDevice(spec); err != nil {
		t.Fatalf("valid custom spec rejected: %v", err)
	}
}

func TestLoadModuleAndDisassemble(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	m, err := ctx.LoadModule(sumKernel(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	dis := m.Disassemble()
	if !strings.Contains(dis, "TEX:") || !strings.Contains(dis, "END_OF_PROGRAM") {
		t.Errorf("disassembly malformed:\n%s", dis)
	}
	if m.Stats().FetchOps != 3 {
		t.Errorf("stats fetches = %d, want 3", m.Stats().FetchOps)
	}
}

func TestResourceAccessors(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	r, err := ctx.AllocResource2D(8, 4, il.Float4, il.TextureSpace)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Set(7, 3, 3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := r.At(7, 3, 3)
	if err != nil || v != 42 {
		t.Fatalf("At = %v, %v", v, err)
	}
	if err := r.Set(8, 0, 0, 1); err == nil {
		t.Error("out-of-range x accepted")
	}
	if _, err := r.At(0, 0, 4); err == nil {
		t.Error("out-of-range lane accepted")
	}
	if _, err := ctx.AllocResource2D(0, 4, il.Float, il.TextureSpace); err == nil {
		t.Error("zero-size resource accepted")
	}
}

func TestLaunchTimingOnly(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	m, err := ctx.LoadModule(sumKernel(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 512, H: 512, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.ElapsedSeconds() <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestLaunchValidatesBindings(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	m, err := ctx.LoadModule(sumKernel(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	in0, _ := ctx.AllocResource2D(16, 16, il.Float, il.TextureSpace)
	out0, _ := ctx.AllocResource2D(16, 16, il.Float, il.TextureSpace)

	// Wrong input count.
	_, err = ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 16, H: 16, Iterations: 1,
		Inputs: []*Resource{in0}, Outputs: []*Resource{out0}})
	if err == nil {
		t.Error("missing input binding accepted")
	}
	// Resource smaller than domain.
	small, _ := ctx.AllocResource2D(8, 8, il.Float, il.TextureSpace)
	_, err = ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 16, H: 16, Iterations: 1,
		Inputs: []*Resource{in0, small}, Outputs: []*Resource{out0}})
	if err == nil {
		t.Error("undersized resource accepted")
	}
	// Wrong data type.
	f4, _ := ctx.AllocResource2D(16, 16, il.Float4, il.TextureSpace)
	_, err = ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 16, H: 16, Iterations: 1,
		Inputs: []*Resource{in0, f4}, Outputs: []*Resource{out0}})
	if err == nil {
		t.Error("type-mismatched resource accepted")
	}
	// Wrong memory space.
	g, _ := ctx.AllocResource2D(16, 16, il.Float, il.GlobalSpace)
	_, err = ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 16, H: 16, Iterations: 1,
		Inputs: []*Resource{in0, g}, Outputs: []*Resource{out0}})
	if err == nil {
		t.Error("space-mismatched resource accepted")
	}
}

func TestLaunchFunctionalComputesSum(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	m, err := ctx.LoadModule(sumKernel(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var ins []*Resource
	for i := 0; i < 3; i++ {
		r, _ := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
		i := i
		r.Fill(func(x, y, _ int) float32 { return float32((i + 1) * (y*n + x)) })
		ins = append(ins, r)
	}
	out, _ := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	_, err = ctx.Launch(m, LaunchConfig{
		Order: raster.PixelOrder(), W: n, H: n, Iterations: 1,
		Inputs: ins, Outputs: []*Resource{out}, Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			want := float32((1 + 2 + 3) * (y*n + x))
			got, _ := out.At(x, y, 0)
			if got != want {
				t.Fatalf("out(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestLaunchComputeModeOnRV670Fails(t *testing.T) {
	ctx := openCtx(t, device.RV670)
	k, err := kerngen.Generic(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 2, Outputs: 1,
		OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.LoadModule(il.Seal(k)); err == nil {
		t.Fatal("RV670 compiled a compute kernel")
	}
}

func TestEventBottleneck(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 8, Outputs: 1, ALUFetchRatio: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ctx.LoadModule(il.Seal(k))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ctx.Launch(m, LaunchConfig{Order: raster.PixelOrder(), W: 1024, H: 1024, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Bottleneck().String() != "ALU" {
		t.Fatalf("ratio-8 kernel bottleneck = %v, want ALU", ev.Bottleneck())
	}
}

func TestLaunchAblatePassthrough(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	m, err := ctx.LoadModule(sumKernel(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	base, err := ctx.Launch(m, launchCfg(256))
	if err != nil {
		t.Fatal(err)
	}
	cfg := launchCfg(256)
	cfg.Ablate = sim.Ablations{SingleWavefront: true}
	abl, err := ctx.Launch(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if abl.Result.WavesPerSIMD != 1 {
		t.Fatalf("ablation not passed through: %d waves", abl.Result.WavesPerSIMD)
	}
	if abl.ElapsedSeconds() <= base.ElapsedSeconds() {
		t.Fatal("single-wavefront launch not slower")
	}
}

func launchCfg(dim int) LaunchConfig {
	return LaunchConfig{Order: raster.PixelOrder(), W: dim, H: dim, Iterations: 1}
}

func TestLoadModuleWithOptions(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	k := sumKernel(t, 8)
	base, err := ctx.LoadModule(k)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := ctx.LoadModuleWith(k, ilc.Options{NoClauseTemps: true, NoPVForwarding: true})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Stats().GPRWrites <= base.Stats().GPRWrites {
		t.Fatalf("forwarding-off module writes %d GPRs, base %d: options ignored",
			abl.Stats().GPRWrites, base.Stats().GPRWrites)
	}
}

func TestLaunchFunctionalWithConstants(t *testing.T) {
	ctx := openCtx(t, device.RV770)
	// out = (in0 + in1) * cb0[1]
	k := &il.Kernel{
		Name: "constmul", Mode: il.Pixel, Type: il.Float,
		NumInputs: 2, NumOutputs: 1, NumConsts: 2,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpAdd, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpMulC, Dst: 3, SrcA: 2, SrcB: il.NoReg, Res: 1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 3, SrcB: il.NoReg, Res: 0},
		},
	}
	m, err := ctx.LoadModule(il.Seal(k))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	a, _ := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	b, _ := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	a.Fill(func(x, y, _ int) float32 { return float32(x) })
	b.Fill(func(x, y, _ int) float32 { return float32(y) })
	out, _ := ctx.AllocResource2D(n, n, il.Float, il.TextureSpace)
	_, err = ctx.Launch(m, LaunchConfig{
		Order: raster.PixelOrder(), W: n, H: n, Iterations: 1,
		Inputs: []*Resource{a, b}, Outputs: []*Resource{out},
		Constants:  [][4]float32{{9, 9, 9, 9}, {2.5, 2.5, 2.5, 2.5}},
		Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := out.At(3, 5, 0)
	if want := float32(3+5) * 2.5; got != want {
		t.Fatalf("constant-multiplied output = %v, want %v", got, want)
	}
	// Unbound constants read as zero.
	k.Code[3].Res = 0
	k2 := *k
	m2, err := ctx.LoadModule(il.Seal(&k2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctx.Launch(m2, LaunchConfig{
		Order: raster.PixelOrder(), W: n, H: n, Iterations: 1,
		Inputs: []*Resource{a, b}, Outputs: []*Resource{out},
		Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := out.At(3, 5, 0); got != 0 {
		t.Fatalf("unbound constant read as %v, want 0", got)
	}
}
