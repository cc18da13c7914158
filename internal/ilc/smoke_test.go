package ilc

import (
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

// chain builds the generic Fig. 3 kernel: sample all inputs, fold, extend
// the dependency chain, export.
func chain(inputs, extraALU int, mode il.ShaderMode, dt il.DataType, inSp, outSp il.MemSpace, outs int) *il.Kernel {
	k := &il.Kernel{
		Name: "chain", Mode: mode, Type: dt,
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
	for i := 1; i < inputs; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: il.Reg(i), Res: -1})
		acc = r
		r++
	}
	prev, prev2 := acc, acc
	if inputs >= 2 {
		prev2 = acc - 1
	}
	for i := 0; i < extraALU; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: prev, SrcB: prev2, Res: -1})
		prev2, prev = prev, r
		r++
	}
	storeOp := il.OpExport
	if outSp == il.GlobalSpace {
		storeOp = il.OpGlobalStore
	}
	for o := 0; o < outs; o++ {
		k.Code = append(k.Code, il.Instr{Op: storeOp, Dst: il.NoReg, SrcA: prev, SrcB: il.NoReg, Res: o})
	}
	return k
}

func TestCompileSmoke(t *testing.T) {
	spec := device.Lookup(device.RV770)
	k := chain(3, 10, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	p, err := Compile(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.FetchOps != 3 {
		t.Errorf("fetches = %d, want 3", st.FetchOps)
	}
	if st.ALUBundles != 2+10 {
		t.Errorf("bundles = %d, want 12", st.ALUBundles)
	}
	// The paper's Fig. 2 commentary: a 3-input, 1-output kernel uses three
	// global purpose registers (the coordinate register is reused).
	if st.GPRs != 3 {
		t.Errorf("GPRs = %d, want 3 as in the paper's Fig. 2 kernel", st.GPRs)
	}
	dis := isa.Disassemble(p)
	for _, want := range []string{"TEX:", "ALU:", "SAMPLE R", "EXP_DONE: PIX0", "END_OF_PROGRAM"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCompileRejectsComputeOnRV670(t *testing.T) {
	spec := device.Lookup(device.RV670)
	k := chain(2, 0, il.Compute, il.Float, il.TextureSpace, il.GlobalSpace, 1)
	if _, err := Compile(k, spec); err == nil {
		t.Fatal("RV670 compute kernel accepted")
	}
}

// TestCompileRejectsIndexPastISA: the ISA encodes registers and
// resource indices in 16 bits, so a kernel that needs more is an error,
// not a program with wrapped indices.
func TestCompileRejectsIndexPastISA(t *testing.T) {
	k := chain(isa.MaxIndex+1, 0, il.Pixel, il.Float, il.TextureSpace, il.TextureSpace, 1)
	_, err := Compile(k, device.Lookup(device.RV770))
	if err == nil || !strings.Contains(err.Error(), "past the ISA's limit") {
		t.Fatalf("kernel with %d inputs: got %v, want an index-limit error", k.NumInputs, err)
	}
}
