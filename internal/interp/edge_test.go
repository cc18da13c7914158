package interp

// Edge cases promoted from fuzzing. FuzzCompileDifferential (in
// internal/conformance) drives the two interpreters with generated
// kernels; the shapes below are the interpreter-level behaviours those
// runs depend on but that no compiled program happens to pin directly —
// operand-class rejection, co-issue read-before-write semantics, the
// forwarding network's channel mapping, and bitwise NaN/Inf comparison.

import (
	"math"
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

func flatEnv(v float32) Env {
	return Env{
		W: 4, H: 4,
		Input: func(res, x, y, l int) float32 { return v },
	}
}

func oneBundleProg(gprs int, ops ...isa.ScalarOp) *isa.Program {
	p := &isa.Program{Name: "edge", Mode: il.Pixel, Type: il.Float, GPRCount: gprs}
	return p.AddALU(isa.Bundle{Ops: ops})
}

// TestRunISARejectsBadOperands: Validate only checks structure, so the
// interpreter itself must reject operand storage the hardware has no
// read or write port for. The fuzzer found each of these reachable
// through hand-built (not compiler-built) programs.
func TestRunISARejectsBadOperands(t *testing.T) {
	g := func(idx int16, ch int8) isa.Operand { return isa.Operand{Kind: isa.KGPR, Index: idx, Chan: ch} }
	cases := []struct {
		name string
		prog *isa.Program
	}{
		{"read GPR beyond count", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: g(7, 0)})},
		{"write GPR beyond count", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: g(7, 0), Src0: g(0, 0)})},
		{"read clause temp T2", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: isa.Operand{Kind: isa.KTemp, Index: 2}})},
		{"write clause temp T2", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: isa.Operand{Kind: isa.KTemp, Index: 2}, Src0: g(0, 0)})},
		{"write to PV", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: isa.Operand{Kind: isa.KPV}, Src0: g(0, 0)})},
		{"write to constant file", oneBundleProg(2,
			isa.ScalarOp{Slot: isa.SlotX, Op: isa.AMov, Dst: isa.Operand{Kind: isa.KConst}, Src0: g(0, 0)})},
		{"fetch beyond GPR count", (&isa.Program{Mode: il.Pixel, Type: il.Float, GPRCount: 2}).
			AddTEX(isa.Fetch{Dst: 5})},
		{"export beyond GPR count", (&isa.Program{Mode: il.Pixel, Type: il.Float, GPRCount: 2}).
			AddExports(isa.ClauseEXP, isa.Export{Src: 5})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err != nil {
				t.Fatalf("fixture must pass structural validation: %v", err)
			}
			if _, err := RunISA(tc.prog, flatEnv(1), Thread{}); err == nil {
				t.Error("RunISA accepted a program with an illegal operand")
			}
		})
	}
}

// TestCoIssueReadsPreBundleState: all slots in a bundle read register
// state from before the bundle, so a two-MOV swap works without a
// temporary — the co-issue semantics the compiler's PV forwarding
// depends on.
func TestCoIssueReadsPreBundleState(t *testing.T) {
	g := func(idx int16, ch int8) isa.Operand { return isa.Operand{Kind: isa.KGPR, Index: idx, Chan: ch} }
	p := &isa.Program{Name: "swap", Mode: il.Pixel, Type: il.Float, GPRCount: 3}
	// Pre-load via a fetch clause would overwrite both; instead use the
	// coordinate preload (R0 = x,y) and MOVs in a prior bundle.
	p.AddALU(isa.Bundle{Ops: []isa.ScalarOp{
		{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: g(0, 0)}, // R1.x = x = 3
		{Slot: isa.SlotY, Op: isa.AMov, Dst: g(2, 0), Src0: g(0, 1)}, // R2.x = y = 9
	}}).AddALU(isa.Bundle{Ops: []isa.ScalarOp{
		{Slot: isa.SlotX, Op: isa.AMov, Dst: g(1, 0), Src0: g(2, 0)},
		{Slot: isa.SlotY, Op: isa.AMov, Dst: g(2, 0), Src0: g(1, 0)},
	}}).AddExports(isa.ClauseEXP, isa.Export{Target: 0, Src: 1}, isa.Export{Target: 1, Src: 2})
	out, err := RunISA(p, flatEnv(0), Thread{X: 3, Y: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 9 || out[1][0] != 3 {
		t.Errorf("swap failed: got R1=%v R2=%v, want 9 and 3", out[0][0], out[1][0])
	}
}

// TestPVChannelFollowsSlot: the PV register's channel is the issuing
// slot, not the destination operand — a z-slot op is readable as PV.z
// even when its architectural destination was R5.x.
func TestPVChannelFollowsSlot(t *testing.T) {
	g := func(idx int16, ch int8) isa.Operand { return isa.Operand{Kind: isa.KGPR, Index: idx, Chan: ch} }
	p := (&isa.Program{Name: "pvchan", Mode: il.Pixel, Type: il.Float, GPRCount: 3}).
		AddALU(
			isa.Bundle{Ops: []isa.ScalarOp{
				{Slot: isa.SlotZ, Op: isa.AAdd, Dst: g(1, 0), Src0: g(0, 0), Src1: g(0, 1)},
			}},
			isa.Bundle{Ops: []isa.ScalarOp{
				{Slot: isa.SlotX, Op: isa.AMov, Dst: g(2, 0), Src0: isa.Operand{Kind: isa.KPV, Chan: 2}},
			}},
		).
		AddExports(isa.ClauseEXP, isa.Export{Target: 0, Src: 2})
	out, err := RunISA(p, flatEnv(0), Thread{X: 4, Y: 6})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 10 {
		t.Errorf("PV.z read %v, want 10 (= x + y)", out[0][0])
	}
}

// TestTranscendentalSpecials: rcp(0) and rsq(negative) produce Inf/NaN;
// both interpreters must agree bitwise so the differential oracle's
// OutputsEqual does not flag correct compilations of degenerate math.
func TestTranscendentalSpecials(t *testing.T) {
	mk := func(op il.Opcode) *il.Kernel {
		return &il.Kernel{
			Name: "special", Mode: il.Pixel, Type: il.Float,
			NumInputs: 1, NumOutputs: 1,
			InputSpace: il.TextureSpace, OutSpace: il.TextureSpace,
			Code: []il.Instr{
				{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
				{Op: op, Dst: 1, SrcA: 0, SrcB: il.NoReg, Res: -1},
				{Op: il.OpExport, Dst: il.NoReg, SrcA: 1, SrcB: il.NoReg, Res: 0},
			},
		}
	}
	cases := []struct {
		name  string
		op    il.Opcode
		in    float32
		check func(float32) bool
	}{
		{"rcp of zero is +Inf", il.OpRcp, 0, func(v float32) bool { return math.IsInf(float64(v), 1) }},
		{"rcp of -0 is -Inf", il.OpRcp, float32(math.Copysign(0, -1)), func(v float32) bool { return math.IsInf(float64(v), -1) }},
		{"rsq of negative is NaN", il.OpRsq, -4, func(v float32) bool { return math.IsNaN(float64(v)) }},
		{"rsq of zero is +Inf", il.OpRsq, 0, func(v float32) bool { return math.IsInf(float64(v), 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := mk(tc.op)
			out, err := RunIL(k, flatEnv(tc.in), Thread{})
			if err != nil {
				t.Fatal(err)
			}
			v := out[0][0]
			if !tc.check(v) {
				t.Errorf("RunIL(%v, %v) = %v", tc.op, tc.in, v)
			}
			// The same value must compare equal to itself bitwise.
			if !OutputsEqual(out, out, 1) {
				t.Error("OutputsEqual rejects identical NaN/Inf outputs")
			}
		})
	}
}

// TestOutputsEqualKeyMismatch: equal sizes with different key sets must
// not compare equal — a miscompile that redirects a store to another
// output keeps len() identical.
func TestOutputsEqualKeyMismatch(t *testing.T) {
	a := map[int]Vec4{0: {1}}
	b := map[int]Vec4{1: {1}}
	if OutputsEqual(a, b, 1) {
		t.Error("OutputsEqual matched maps with disjoint keys")
	}
	if OutputsEqual(a, map[int]Vec4{0: {1}, 1: {2}}, 1) {
		t.Error("OutputsEqual matched maps of different sizes")
	}
	// Lanes beyond the comparison width are ignored: a float kernel's
	// scratch lanes may differ between IL and ISA execution.
	if !OutputsEqual(map[int]Vec4{0: {1, 9}}, map[int]Vec4{0: {1, 7}}, 1) {
		t.Error("OutputsEqual compared lanes beyond the requested width")
	}
}

// TestNilConstReadsAsZero: both the IL constant ops and the ISA constant
// file read zero through a nil Env.Const — the fuzzer relies on this
// when it generates kernels with constants but the harness supplies a
// minimal environment.
func TestNilConstReadsAsZero(t *testing.T) {
	k := &il.Kernel{
		Name: "nilconst", Mode: il.Pixel, Type: il.Float,
		NumInputs: 1, NumOutputs: 1, NumConsts: 1,
		InputSpace: il.TextureSpace, OutSpace: il.TextureSpace,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpAddC, Dst: 1, SrcA: 0, SrcB: il.NoReg, Res: 0},
			{Op: il.OpMulC, Dst: 2, SrcA: 1, SrcB: il.NoReg, Res: 0},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 2, SrcB: il.NoReg, Res: 0},
		},
	}
	out, err := RunIL(k, flatEnv(5), Thread{})
	if err != nil {
		t.Fatal(err)
	}
	// (5 + 0) * 0 = 0
	if out[0][0] != 0 {
		t.Errorf("nil Const: got %v, want 0", out[0][0])
	}
}
