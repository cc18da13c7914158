package ilc

import (
	"math/rand"
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/isa"
)

// transChain builds: sample n inputs, fold, then a chain of rcp/rsq ops.
func transChain(inputs, transOps int, dt il.DataType) *il.Kernel {
	k := &il.Kernel{
		Name: "trans", Mode: il.Pixel, Type: dt,
		NumInputs: inputs, NumOutputs: 1,
	}
	r := il.Reg(0)
	for i := 0; i < inputs; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: r, SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
		r++
	}
	acc := il.Reg(0)
	for i := 1; i < inputs; i++ {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: r, SrcA: acc, SrcB: il.Reg(i), Res: -1})
		acc = r
		r++
	}
	for i := 0; i < transOps; i++ {
		op := il.OpRcp
		if i%2 == 1 {
			op = il.OpRsq
		}
		k.Code = append(k.Code, il.Instr{Op: op, Dst: r, SrcA: acc, SrcB: il.NoReg, Res: -1})
		acc = r
		r++
	}
	k.Code = append(k.Code, il.Instr{Op: il.OpExport, Dst: il.NoReg, SrcA: acc, SrcB: il.NoReg, Res: 0})
	return k
}

func TestTransOpsOccupySlotT(t *testing.T) {
	k := transChain(2, 6, il.Float)
	p := mustCompile(t, k, rv770)
	found := 0
	for _, c := range p.Clauses {
		if c.Kind != isa.ClauseALU {
			continue
		}
		for _, b := range p.BundlesOf(c) {
			for _, op := range b.Ops {
				if op.Op.IsTrans() {
					found++
					if op.Slot != isa.SlotT {
						t.Fatalf("transcendental %v in slot %v", op.Op, op.Slot)
					}
				}
			}
		}
	}
	if found != 6 {
		t.Fatalf("found %d transcendental ops, want 6", found)
	}
}

func TestVectorTransCostsFourBundles(t *testing.T) {
	// A float4 transcendental must spread over four bundles' t slots —
	// the 4:1 throughput penalty of the single transcendental core.
	scalar := transChain(2, 4, il.Float)
	vector := transChain(2, 4, il.Float4)
	ps := mustCompile(t, scalar, rv770)
	pv := mustCompile(t, vector, rv770)
	sb := ps.Stats().ALUBundles
	vb := pv.Stats().ALUBundles
	// 1 fold op + 4 trans: scalar = 5 bundles; vector = 1 + 16 = 17.
	if sb != 5 {
		t.Fatalf("scalar bundles = %d, want 5", sb)
	}
	if vb != 17 {
		t.Fatalf("vector bundles = %d, want 17 (4 bundles per float4 transcendental)", vb)
	}
}

func TestIndependentTransOpsCannotCoIssue(t *testing.T) {
	// Two independent rcp ops compete for the single t slot and must land
	// in different bundles, while two independent adds co-issue.
	k := &il.Kernel{
		Name: "tpack", Mode: il.Pixel, Type: il.Float,
		NumInputs: 2, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpRcp, Dst: 2, SrcA: 0, SrcB: il.NoReg, Res: -1},
			{Op: il.OpRcp, Dst: 3, SrcA: 1, SrcB: il.NoReg, Res: -1},
			{Op: il.OpAdd, Dst: 4, SrcA: 2, SrcB: 3, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 4, SrcB: il.NoReg, Res: 0},
		},
	}
	p := mustCompile(t, k, rv770)
	for _, c := range p.Clauses {
		if c.Kind != isa.ClauseALU {
			continue
		}
		for _, b := range p.BundlesOf(c) {
			trans := 0
			for _, op := range b.Ops {
				if op.Op.IsTrans() {
					trans++
				}
			}
			if trans > 1 {
				t.Fatalf("bundle co-issued %d transcendentals", trans)
			}
		}
	}
}

func TestMixedTransAndBasicCoIssue(t *testing.T) {
	// An rcp and an independent add CAN share a bundle (t + x slots).
	k := &il.Kernel{
		Name: "mix", Mode: il.Pixel, Type: il.Float,
		NumInputs: 2, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpRcp, Dst: 2, SrcA: 0, SrcB: il.NoReg, Res: -1},
			{Op: il.OpAdd, Dst: 3, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpAdd, Dst: 4, SrcA: 2, SrcB: 3, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 4, SrcB: il.NoReg, Res: 0},
		},
	}
	p := mustCompile(t, k, rv770)
	if got := p.Stats().ALUBundles; got != 2 {
		t.Fatalf("bundles = %d, want 2 (rcp+add co-issued, then the final add)", got)
	}
}

func TestTransSemantics(t *testing.T) {
	env := interp.Env{W: 4, H: 4, Input: func(res, x, y, l int) float32 {
		return float32(res+2) + float32(x+y) + float32(l)
	}}
	for _, dt := range []il.DataType{il.Float, il.Float4} {
		for _, nTrans := range []int{1, 2, 5} {
			k := transChain(3, nTrans, dt)
			p := mustCompile(t, k, rv770)
			th := interp.Thread{X: 1, Y: 2}
			want, err := interp.RunIL(k, env, th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.RunISA(p, env, th)
			if err != nil {
				t.Fatalf("%s/%d: %v\n%s", dt, nTrans, err, isa.Disassemble(p))
			}
			if !interp.OutputsEqual(want, got, dt.Lanes()) {
				t.Fatalf("%s/%d: IL %v != ISA %v\n%s", dt, nTrans, want, got, isa.Disassemble(p))
			}
		}
	}
}

func TestSubSemantics(t *testing.T) {
	k := &il.Kernel{
		Name: "sub", Mode: il.Pixel, Type: il.Float,
		NumInputs: 2, NumOutputs: 1,
		Code: []il.Instr{
			{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0},
			{Op: il.OpSample, Dst: 1, SrcA: il.NoReg, SrcB: il.NoReg, Res: 1},
			{Op: il.OpSub, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
			{Op: il.OpExport, Dst: il.NoReg, SrcA: 2, SrcB: il.NoReg, Res: 0},
		},
	}
	p := mustCompile(t, k, rv770)
	env := interp.Env{W: 4, H: 4, Input: func(res, x, y, l int) float32 { return float32(res*10 + x) }}
	out, err := interp.RunISA(p, env, interp.Thread{X: 3, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 3-13 {
		t.Fatalf("sub = %v, want -10", out[0][0])
	}
}

// TestCompilePreservesSemanticsWithTrans extends the random-DAG
// equivalence property to the full opcode set.
func TestCompilePreservesSemanticsWithTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Inputs strictly positive so rcp/rsq stay finite and exact-compare.
	env := interp.Env{W: 8, H: 8, Input: func(res, x, y, l int) float32 {
		return 1 + float32(res)*0.5 + float32(x+y)*0.25 + float32(l)
	}}
	ops := []il.Opcode{il.OpAdd, il.OpSub, il.OpMul, il.OpMov, il.OpRcp, il.OpRsq}
	for trial := 0; trial < 200; trial++ {
		inputs := 1 + rng.Intn(6)
		dt := il.Float
		if rng.Intn(2) == 1 {
			dt = il.Float4
		}
		k := &il.Kernel{Name: "randt", Mode: il.Pixel, Type: dt, NumInputs: inputs, NumOutputs: 1}
		r := 0
		for i := 0; i < inputs; i++ {
			k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: il.Reg(r), SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
			r++
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			op := ops[rng.Intn(len(ops))]
			in := il.Instr{Op: op, Dst: il.Reg(r), SrcA: il.Reg(rng.Intn(r)), SrcB: il.NoReg, Res: -1}
			if op.NumSrcs() == 2 {
				in.SrcB = il.Reg(rng.Intn(r))
			}
			k.Code = append(k.Code, in)
			r++
		}
		k.Code = append(k.Code, il.Instr{Op: il.OpExport, Dst: il.NoReg, SrcA: il.Reg(rng.Intn(r)), SrcB: il.NoReg, Res: 0})
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p, err := Compile(k, rv770)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		th := interp.Thread{X: rng.Intn(8), Y: rng.Intn(8)}
		want, err := interp.RunIL(k, env, th)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := interp.RunISA(p, env, th)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, isa.Disassemble(p))
		}
		if !interp.OutputsEqual(want, got, dt.Lanes()) {
			t.Fatalf("trial %d: IL %v != ISA %v\nkernel:\n%s\nisa:\n%s",
				trial, want, got, il.Assemble(k), isa.Disassemble(p))
		}
	}
}
