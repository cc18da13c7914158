package ilc

import (
	"math/rand"
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/isa"
)

var rv770 = device.Lookup(device.RV770)

func mustCompile(t *testing.T, k *il.Kernel, spec device.Spec) *isa.Program {
	t.Helper()
	p, err := Compile(k, spec)
	if err != nil {
		t.Fatalf("Compile(%s): %v", k.Name, err)
	}
	return p
}

func TestTEXClauseSplitting(t *testing.T) {
	// 20 samples with an 8-fetch clause limit must become 8+8+4.
	k := chain(20, 0, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p := mustCompile(t, k, rv770)
	var texSizes []int
	for _, c := range p.Clauses {
		if c.Kind == isa.ClauseTEX {
			texSizes = append(texSizes, c.Len())
		}
	}
	want := []int{8, 8, 4}
	if len(texSizes) != len(want) {
		t.Fatalf("TEX clause sizes = %v, want %v", texSizes, want)
	}
	for i := range want {
		if texSizes[i] != want[i] {
			t.Fatalf("TEX clause sizes = %v, want %v", texSizes, want)
		}
	}
}

func TestALUClauseSplitting(t *testing.T) {
	// 300 chained ALU ops at a 128-bundle limit: the chain cannot pack,
	// so clause sizes must be 128 + 128 + remainder.
	k := chain(2, 299, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p := mustCompile(t, k, rv770)
	var aluSizes []int
	for _, c := range p.Clauses {
		if c.Kind == isa.ClauseALU {
			aluSizes = append(aluSizes, c.Len())
		}
	}
	if len(aluSizes) != 3 || aluSizes[0] != 128 || aluSizes[1] != 128 || aluSizes[2] != 44 {
		t.Fatalf("ALU clause sizes = %v, want [128 128 44]", aluSizes)
	}
}

func TestChainDefeatsPacking(t *testing.T) {
	// Section III: the high data dependency prevents VLIW packing, so the
	// bundle count equals the IL ALU op count for both data types.
	for _, dt := range []il.DataType{il.Float, il.Float4} {
		k := chain(8, 25, il.Pixel, dt, il.TextureSpace, il.TextureSpace, 1)
		p := mustCompile(t, k, rv770)
		st := p.Stats()
		wantALU := k.Counts().ALU
		if st.ALUBundles != wantALU {
			t.Errorf("%s: bundles = %d, want %d (no packing possible)", dt, st.ALUBundles, wantALU)
		}
	}
}

func TestIndependentOpsDoPack(t *testing.T) {
	// Four independent adds over eight inputs must co-issue in one bundle
	// for scalar data (x, y, z, w slots), proving the packer is real.
	k := &il.Kernel{
		Name: "packable", Mode: il.Pixel, Type: il.Float,
		NumInputs: 8, NumOutputs: 1,
	}
	for i := 0; i < 8; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: il.Reg(i), SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
	}
	for i := 0; i < 4; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: il.Reg(8 + i), SrcA: il.Reg(2 * i), SrcB: il.Reg(2*i + 1), Res: -1})
	}
	k.Code = append(k.Code,
		il.Instr{Op: il.OpAdd, Dst: 12, SrcA: 8, SrcB: 9, Res: -1},
		il.Instr{Op: il.OpAdd, Dst: 13, SrcA: 10, SrcB: 11, Res: -1},
		il.Instr{Op: il.OpAdd, Dst: 14, SrcA: 12, SrcB: 13, Res: -1},
		il.Instr{Op: il.OpExport, Dst: il.NoReg, SrcA: 14, SrcB: il.NoReg, Res: 0},
	)
	p := mustCompile(t, k, rv770)
	st := p.Stats()
	// Level 1: 4 independent adds in one bundle (possibly spilling one to
	// the t slot -> still one bundle). Level 2: 2 adds, one bundle.
	// Level 3: 1 add. Total 3 bundles instead of 7.
	if st.ALUBundles != 3 {
		t.Fatalf("bundles = %d, want 3 (packed); packing=%.2f", st.ALUBundles, st.ALUPacking)
	}
	if st.ALUPacking <= 2.0 {
		t.Errorf("packing density = %.2f, want > 2", st.ALUPacking)
	}
}

func TestFloat4OpsOccupyFourSlots(t *testing.T) {
	k := chain(2, 3, il.Pixel, il.Float4, il.TextureSpace, il.TextureSpace, 1)
	p := mustCompile(t, k, rv770)
	for _, c := range p.Clauses {
		if c.Kind != isa.ClauseALU {
			continue
		}
		for _, b := range p.BundlesOf(c) {
			if len(b.Ops) != 4 {
				t.Fatalf("float4 bundle has %d scalar ops, want 4", len(b.Ops))
			}
		}
	}
}

func TestDisassemblyUsesPVAndTemps(t *testing.T) {
	// The fold chain forwards through PV; the long dependency chain needs
	// the T0/T1 clause temporaries — both visible in Fig. 2 of the paper.
	k := chain(8, 24, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p := mustCompile(t, k, rv770)
	dis := isa.Disassemble(p)
	if !strings.Contains(dis, "PV.") {
		t.Errorf("disassembly has no PV references:\n%s", dis)
	}
	if !strings.Contains(dis, "T0.") || !strings.Contains(dis, "T1.") {
		t.Errorf("disassembly has no clause temporaries:\n%s", dis)
	}
	if !strings.Contains(dis, "____") {
		t.Errorf("disassembly has no PV-only destinations:\n%s", dis)
	}
}

func TestGPRCountTracksUpFrontInputs(t *testing.T) {
	// All sampling up front: GPR count ~ inputs + 1 (chain crossing of
	// clause boundaries), matching the register-usage micro-benchmark's
	// baseline. Growth must be monotone in inputs.
	prev := 0
	for _, inputs := range []int{4, 8, 16, 32, 64} {
		k := chain(inputs, 16, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
		p := mustCompile(t, k, rv770)
		g := p.Stats().GPRs
		if g < inputs || g > inputs+3 {
			t.Errorf("inputs=%d: GPRs = %d, want within [%d,%d]", inputs, g, inputs, inputs+3)
		}
		if g < prev {
			t.Errorf("GPR count decreased: %d after %d", g, prev)
		}
		prev = g
	}
}

func TestSKARatioConvention(t *testing.T) {
	// Section III-A: 16 ALU ops and 4 TEX ops report as 1.0.
	k := chain(4, 16-3, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p := mustCompile(t, k, rv770)
	st := p.Stats()
	if st.FetchOps != 4 || st.ALUBundles != 16 {
		t.Fatalf("mix = %d ALU / %d TEX, want 16/4", st.ALUBundles, st.FetchOps)
	}
	if st.ALUFetchSKA != 1.0 {
		t.Fatalf("SKA ratio = %v, want 1.0", st.ALUFetchSKA)
	}
}

func TestGlobalKernelClauses(t *testing.T) {
	k := chain(4, 8, il.Pixel, il.Float, il.GlobalSpace, il.GlobalSpace, 2)
	p := mustCompile(t, k, rv770)
	sawVFetch, sawMem := false, false
	for _, c := range p.Clauses {
		if c.Kind == isa.ClauseTEX {
			for _, f := range p.FetchesOf(c) {
				if f.Global {
					sawVFetch = true
				}
			}
		}
		if c.Kind == isa.ClauseMEM {
			sawMem = true
			if c.Len() != 2 {
				t.Errorf("MEM clause has %d exports, want 2", c.Len())
			}
		}
	}
	if !sawVFetch || !sawMem {
		t.Errorf("global kernel missing VFETCH (%v) or MEM export (%v)", sawVFetch, sawMem)
	}
}

func TestMultipleOutputsRaiseGPRs(t *testing.T) {
	// Outputs hold GPRs until the export clause; with few inputs the
	// output count dominates register usage (Section III-C relies on the
	// converse: pinning register usage to the input count).
	k1 := chain(8, 10, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p1 := mustCompile(t, k1, rv770)
	k8 := multiOutChain(t, 8, 10, 6)
	p8 := mustCompile(t, k8, rv770)
	if p8.GPRCount <= p1.GPRCount-1 {
		t.Errorf("6-output kernel GPRs (%d) not above 1-output kernel (%d)", p8.GPRCount, p1.GPRCount)
	}
}

// multiOutChain builds a kernel exporting distinct chain values to each
// output, so every output stages its own GPR.
func multiOutChain(t *testing.T, inputs, extra, outs int) *il.Kernel {
	t.Helper()
	k := chain(inputs, extra, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, outs)
	// Rewire the stores emitted by chain() to distinct values.
	n := len(k.Code)
	firstStore := n - outs
	for o := 0; o < outs; o++ {
		src := k.Code[firstStore-1].Dst - il.Reg(o)
		if src < 0 {
			src = 0
		}
		k.Code[firstStore+o].SrcA = src
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("multiOutChain invalid: %v", err)
	}
	return k
}

// --- semantic equivalence property tests -------------------------------

func randomKernel(rng *rand.Rand) *il.Kernel {
	inputs := 1 + rng.Intn(10)
	outs := 1 + rng.Intn(3)
	dt := il.Float
	if rng.Intn(2) == 1 {
		dt = il.Float4
	}
	mode := il.Pixel
	outSp := il.TextureSpace
	if rng.Intn(2) == 1 {
		mode = il.Compute
		outSp = il.GlobalSpace
	}
	inSp := il.TextureSpace
	if rng.Intn(3) == 0 {
		inSp = il.GlobalSpace
	}
	k := &il.Kernel{
		Name: "rand", Mode: mode, Type: dt,
		NumInputs: inputs, NumOutputs: outs,
		InputSpace: inSp, OutSpace: outSp,
	}
	fetchOp := il.OpSample
	if inSp == il.GlobalSpace {
		fetchOp = il.OpGlobalLoad
	}
	r := 0
	for i := 0; i < inputs; i++ {
		k.Code = append(k.Code, il.Instr{Op: fetchOp, Dst: il.Reg(r), SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
		r++
	}
	nops := 1 + rng.Intn(60)
	for i := 0; i < nops; i++ {
		var in il.Instr
		switch rng.Intn(3) {
		case 0:
			in = il.Instr{Op: il.OpAdd, Dst: il.Reg(r), SrcA: il.Reg(rng.Intn(r)), SrcB: il.Reg(rng.Intn(r)), Res: -1}
		case 1:
			in = il.Instr{Op: il.OpMul, Dst: il.Reg(r), SrcA: il.Reg(rng.Intn(r)), SrcB: il.Reg(rng.Intn(r)), Res: -1}
		default:
			in = il.Instr{Op: il.OpMov, Dst: il.Reg(r), SrcA: il.Reg(rng.Intn(r)), SrcB: il.NoReg, Res: -1}
		}
		k.Code = append(k.Code, in)
		r++
	}
	storeOp := il.OpExport
	if outSp == il.GlobalSpace {
		storeOp = il.OpGlobalStore
	}
	for o := 0; o < outs; o++ {
		k.Code = append(k.Code, il.Instr{Op: storeOp, Dst: il.NoReg, SrcA: il.Reg(rng.Intn(r)), SrcB: il.NoReg, Res: o})
	}
	return k
}

func TestCompilePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := interp.Env{W: 16, H: 16, Input: func(res, x, y, l int) float32 {
		return float32(res+1)*0.5 + float32(x)*0.25 + float32(y)*2 + float32(l)*0.125
	}}
	for trial := 0; trial < 300; trial++ {
		k := randomKernel(rng)
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: generator bug: %v", trial, err)
		}
		p, err := Compile(k, rv770)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, th := range []interp.Thread{{X: 0, Y: 0}, {X: 3, Y: 5}, {X: 15, Y: 15}} {
			want, err := interp.RunIL(k, env, th)
			if err != nil {
				t.Fatalf("trial %d: IL interp: %v", trial, err)
			}
			got, err := interp.RunISA(p, env, th)
			if err != nil {
				t.Fatalf("trial %d: ISA interp: %v\n%s", trial, err, isa.Disassemble(p))
			}
			if !interp.OutputsEqual(want, got, k.Type.Lanes()) {
				t.Fatalf("trial %d thread %v: outputs differ\nIL:  %v\nISA: %v\nkernel:\n%s\nisa:\n%s",
					trial, th, want, got, il.Assemble(k), isa.Disassemble(p))
			}
		}
	}
}

func TestCompilePreservesSemanticsChains(t *testing.T) {
	// The exact kernels the suite generates: fold + long chains at every
	// clause-boundary-straddling length.
	env := interp.Env{W: 8, H: 8, Input: func(res, x, y, l int) float32 {
		return float32(res) + float32(x*8+y) + float32(l)*0.5
	}}
	for _, inputs := range []int{1, 2, 3, 8, 17} {
		for _, extra := range []int{0, 1, 2, 126, 127, 128, 129, 255} {
			k := chain(inputs, extra, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
			p, err := Compile(k, rv770)
			if err != nil {
				t.Fatalf("inputs=%d extra=%d: %v", inputs, extra, err)
			}
			th := interp.Thread{X: 2, Y: 6}
			want, _ := interp.RunIL(k, env, th)
			got, err := interp.RunISA(p, env, th)
			if err != nil {
				t.Fatalf("inputs=%d extra=%d: %v", inputs, extra, err)
			}
			if !interp.OutputsEqual(want, got, 1) {
				t.Fatalf("inputs=%d extra=%d: IL %v != ISA %v", inputs, extra, want, got)
			}
		}
	}
}
