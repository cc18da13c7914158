package ilc

import (
	"reflect"
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/kerngen"
)

func TestOptimizeRemovesDeadChain(t *testing.T) {
	// A live sum of two inputs, plus a dead side chain off input 0.
	k := &il.Kernel{
		Name: "deadchain", Mode: il.Pixel, Type: il.Float,
		NumInputs: 2, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpAdd, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpMul, Dst: 3, SrcA: 0, SrcB: 0, Res: -1}, // dead
			{Op: il.OpAdd, Dst: 4, SrcA: 3, SrcB: 3, Res: -1}, // dead
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 2, SrcB: il.NoReg, Res: 0},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, rep, err := Optimize(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOps != 2 {
		t.Fatalf("removed %d ops, want 2", rep.RemovedOps)
	}
	if len(rep.RemovedInputs) != 0 {
		t.Fatalf("removed inputs %v, want none", rep.RemovedInputs)
	}
	if got := opt.Counts().ALU; got != 1 {
		t.Fatalf("optimized ALU count = %d, want 1", got)
	}
}

func TestOptimizeRemovesUnusedInput(t *testing.T) {
	// Input 1 is sampled but its value never reaches the store: the
	// paper's "the compiler optimizes the input out of the code".
	k := &il.Kernel{
		Name: "unusedinput", Mode: il.Pixel, Type: il.Float,
		NumInputs: 3, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1}, // dead
			{Op: il.OpSample, Dst: 2, SrcA: il.NoReg, SrcB: il.NoReg, Res: 2},
			{Op: il.OpAdd, Dst: 3, SrcA: 0, SrcB: 2, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 3, SrcB: il.NoReg, Res: 0},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, rep, err := Optimize(k)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumInputs != 2 {
		t.Fatalf("optimized inputs = %d, want 2", opt.NumInputs)
	}
	if len(rep.RemovedInputs) != 1 || rep.RemovedInputs[0] != 1 {
		t.Fatalf("removed inputs = %v, want [1]", rep.RemovedInputs)
	}
	// Resource indices must be renumbered densely: old 2 becomes 1.
	sawRenumbered := false
	for _, in := range opt.Code {
		if in.Op == il.OpSample && in.Res == 1 {
			sawRenumbered = true
		}
		if in.Op == il.OpSample && in.Res > 1 {
			t.Fatalf("stale resource index %d after renumbering", in.Res)
		}
	}
	if !sawRenumbered {
		t.Fatal("resource 2 not renumbered to 1")
	}
	// Optimized kernel computes the same live output.
	env := interp.Env{W: 4, H: 4, Input: func(res, x, y, l int) float32 { return float32(res*7 + x + y) }}
	// The optimized kernel's resource 1 is the original resource 2.
	envOpt := interp.Env{W: 4, H: 4, Input: func(res, x, y, l int) float32 {
		if res == 1 {
			res = 2
		}
		return float32(res*7 + x + y)
	}}
	th := interp.Thread{X: 1, Y: 3}
	want, err := interp.RunIL(k, env, th)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.RunIL(opt, envOpt, th)
	if err != nil {
		t.Fatal(err)
	}
	if !interp.OutputsEqual(want, got, 1) {
		t.Fatalf("optimized output %v != original %v", got, want)
	}
}

func TestOptimizeRejectsOutputlessKernel(t *testing.T) {
	k := &il.Kernel{
		Name: "noout", Mode: il.Pixel, Type: il.Float,
		NumInputs: 1, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
		},
	}
	if _, _, err := Optimize(k); err == nil {
		t.Fatal("output-less kernel accepted by the optimizer")
	}
}

func TestOptimizeLeavesGeneratedKernelsAlone(t *testing.T) {
	// The micro-benchmark generators construct fully-live kernels — the
	// property the paper's methodology depends on to control instruction
	// counts. The optimizer must be an identity on them.
	gens := []func() (*il.Kernel, error){
		func() (*il.Kernel, error) {
			return kerngen.ALUFetch(kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 16, Outputs: 1, ALUFetchRatio: 2})
		},
		func() (*il.Kernel, error) {
			return kerngen.ReadLatency(kerngen.Params{Mode: il.Pixel, Type: il.Float4, Inputs: 9, Outputs: 1})
		},
		func() (*il.Kernel, error) {
			return kerngen.WriteLatency(kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 8, Outputs: 5})
		},
		func() (*il.Kernel, error) {
			return kerngen.RegisterUsage(kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1, ALUFetchRatio: 1, Space: 8, Step: 4})
		},
	}
	for i, gen := range gens {
		k, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		opt, rep, err := Optimize(k)
		if err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
		if rep.RemovedOps != 0 || len(rep.RemovedInputs) != 0 {
			t.Fatalf("generator %d: optimizer removed %d ops / inputs %v from a fully-live kernel",
				i, rep.RemovedOps, rep.RemovedInputs)
		}
		if !reflect.DeepEqual(opt.Code, k.Code) {
			t.Fatalf("generator %d: code changed", i)
		}
	}
}

func TestOptimizeDoesNotModifyOriginal(t *testing.T) {
	k := chain(2, 4, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	k.Code = append(k.Code[:len(k.Code)-1],
		il.Instr{Op: il.OpMul, Dst: il.Reg(k.NumTemps()), SrcA: 0, SrcB: 0, Res: -1}, // dead
		k.Code[len(k.Code)-1],
	)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	before := make([]il.Instr, len(k.Code))
	copy(before, k.Code)
	if _, _, err := Optimize(k); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, k.Code) {
		t.Fatal("Optimize modified its input kernel")
	}
}
