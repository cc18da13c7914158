package interp

import (
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

func env() Env {
	return Env{W: 8, H: 8, Input: func(res, x, y, l int) float32 {
		return float32(res*100+y*8+x) + float32(l)*0.25
	}}
}

func TestRunILSumChain(t *testing.T) {
	k := &il.Kernel{
		Name: "sum3", Mode: il.Pixel, Type: il.Float,
		NumInputs: 3, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpSample, Dst: 2, SrcA: il.NoReg, SrcB: il.NoReg, Res: 2},
			{Op: il.OpAdd, Dst: 3, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpAdd, Dst: 4, SrcA: 3, SrcB: 2, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 4, SrcB: il.NoReg, Res: 0},
		},
	}
	out, err := RunIL(k, env(), Thread{X: 2, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	// inputs at (2,3): 26, 126, 226 -> 378.
	if got := out[0][0]; got != 378 {
		t.Fatalf("output = %v, want 378", got)
	}
}

func TestRunILMulMov(t *testing.T) {
	k := &il.Kernel{
		Name: "mm", Mode: il.Pixel, Type: il.Float4,
		NumInputs: 2, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpMul, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpMov, Dst: 3, SrcA: 2, SrcB: il.NoReg, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 3, SrcB: il.NoReg, Res: 0},
		},
	}
	out, err := RunIL(k, env(), Thread{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		a := float32(0) + float32(l)*0.25
		b := float32(100) + float32(l)*0.25
		if out[0][l] != a*b {
			t.Errorf("lane %d = %v, want %v", l, out[0][l], a*b)
		}
	}
}

func TestRunILRejectsInvalidKernel(t *testing.T) {
	k := &il.Kernel{Name: "bad", NumInputs: 0, NumOutputs: 0}
	if _, err := RunIL(k, env(), Thread{}); err == nil {
		t.Fatal("invalid kernel executed")
	}
}

// handISA builds a small program by hand to pin PV/PS/temp semantics.
func handISA() *isa.Program {
	g := func(i int16, c int8) isa.Operand { return isa.Operand{Kind: isa.KGPR, Index: i, Chan: c} }
	p := &isa.Program{Name: "hand", Mode: il.Pixel, Type: il.Float, GPRCount: 3}
	return p.AddTEX(
		isa.Fetch{Dst: 1, Coord: 0, Resource: 0, ElemBytes: 4},
		isa.Fetch{Dst: 2, Coord: 0, Resource: 1, ElemBytes: 4},
	).AddALU(
		// b0: x: ADD ____(PV.x) = R1.x + R2.x ; t: MUL PS = R1.x * R2.x
		isa.Bundle{Ops: []isa.ScalarOp{
			{Slot: isa.SlotX, Op: isa.AAdd, Dst: isa.Operand{Kind: isa.KNone}, Src0: g(1, 0), Src1: g(2, 0)},
			{Slot: isa.SlotT, Op: isa.AMul, Dst: isa.Operand{Kind: isa.KNone}, Src0: g(1, 0), Src1: g(2, 0)},
		}},
		// b1: x: ADD T0.x = PV.x + PS
		isa.Bundle{Ops: []isa.ScalarOp{
			{Slot: isa.SlotX, Op: isa.AAdd,
				Dst:  isa.Operand{Kind: isa.KTemp, Index: 0, Chan: 0},
				Src0: isa.Operand{Kind: isa.KPV, Chan: 0},
				Src1: isa.Operand{Kind: isa.KPS}},
		}},
		// b2: x: MOV R1.x = T0.x
		isa.Bundle{Ops: []isa.ScalarOp{
			{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: isa.Operand{Kind: isa.KTemp, Index: 0, Chan: 0}},
		}},
	).AddExports(isa.ClauseEXP, isa.Export{Target: 0, Src: 1, ElemBytes: 4})
}

func TestRunISAPVPSAndTemps(t *testing.T) {
	out, err := RunISA(handISA(), env(), Thread{X: 1, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := float32(9)   // input 0 at (1,1)
	b := float32(109) // input 1 at (1,1)
	want := (a + b) + a*b
	if out[0][0] != want {
		t.Fatalf("output = %v, want %v", out[0][0], want)
	}
}

func TestRunISACoordinatePreload(t *testing.T) {
	// A program that exports R0 directly must produce the thread coords.
	p := (&isa.Program{Name: "coords", Mode: il.Pixel, Type: il.Float4, GPRCount: 1}).
		AddExports(isa.ClauseEXP, isa.Export{Target: 0, Src: 0, ElemBytes: 16})
	out, err := RunISA(p, env(), Thread{X: 5, Y: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 5 || out[0][1] != 7 {
		t.Fatalf("coordinate register = %v, want [5 7 ...]", out[0])
	}
}

func TestRunISAClauseTempsDoNotSurviveClauses(t *testing.T) {
	// Write T0 in one clause, read it in the next: the value must be
	// gone (cleared to zero), because clause temporaries are only live
	// inside their clause (Section II-A of the paper).
	g := func(i int16, c int8) isa.Operand { return isa.Operand{Kind: isa.KGPR, Index: i, Chan: c} }
	tmp := isa.Operand{Kind: isa.KTemp, Index: 0, Chan: 0}
	p := (&isa.Program{Name: "tdeath", Mode: il.Pixel, Type: il.Float, GPRCount: 2}).
		AddTEX(isa.Fetch{Dst: 1, Coord: 0, Resource: 0, ElemBytes: 4}).
		AddALU(isa.Bundle{Ops: []isa.ScalarOp{{Slot: isa.SlotX, Op: isa.AMov, Dst: tmp, Src0: g(1, 0)}}}).
		// A TEX clause interrupts, ending the ALU clause.
		AddTEX(isa.Fetch{Dst: 0, Coord: 0, Resource: 0, ElemBytes: 4}).
		AddALU(isa.Bundle{Ops: []isa.ScalarOp{{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: tmp}}}).
		AddExports(isa.ClauseEXP, isa.Export{Target: 0, Src: 1, ElemBytes: 4})
	out, err := RunISA(p, env(), Thread{X: 3, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 0 {
		t.Fatalf("clause temp survived a clause boundary: output = %v", out[0][0])
	}
}

func TestRunISAOutOfRangeGPR(t *testing.T) {
	p := handISA()
	p.GPRCount = 1 // fetches write R1/R2 which no longer exist
	if _, err := RunISA(p, env(), Thread{}); err == nil {
		t.Fatal("out-of-range GPR accepted")
	}
}

func TestOutputsEqual(t *testing.T) {
	a := map[int]Vec4{0: {1, 2, 3, 4}}
	b := map[int]Vec4{0: {1, 9, 9, 9}}
	if !OutputsEqual(a, b, 1) {
		t.Error("lane-0 comparison should match")
	}
	if OutputsEqual(a, b, 4) {
		t.Error("4-lane comparison should differ")
	}
	if OutputsEqual(a, map[int]Vec4{}, 1) {
		t.Error("size mismatch should differ")
	}
	if OutputsEqual(a, map[int]Vec4{1: {1}}, 1) {
		t.Error("key mismatch should differ")
	}
}
