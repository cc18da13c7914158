package isa

// Edge cases promoted from fuzzing the conformance package's generators
// against Validate/Disassemble/Stats. Each table entry is a program
// shape the random explorer produced (or a neighbour of one) that either
// exercised an error path or once rendered/aggregated inconsistently;
// pinning them here keeps the fixes from regressing without re-running
// the fuzzer.

import (
	"strings"
	"testing"

	"amdgpubench/internal/il"
)

func aluProgram(b ...Bundle) *Program {
	return new(Program).AddALU(b...)
}

func TestValidateRejectsEdgeShapes(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want string // substring of the expected error
	}{
		{
			name: "slot out of range high",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: Slot(5), Op: AMov, Dst: gpr(1, 0), Src0: gpr(0, 0)},
			}}),
			want: "bad slot",
		},
		{
			name: "slot out of range negative",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: Slot(-1), Op: AMov, Dst: gpr(1, 0), Src0: gpr(0, 0)},
			}}),
			want: "bad slot",
		},
		{
			name: "transcendental outside slot t",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: SlotX, Op: ARcp, Dst: gpr(1, 0), Src0: gpr(0, 0)},
			}}),
			want: "outside slot t",
		},
		{
			name: "rsq is transcendental too",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: SlotW, Op: ARsq, Dst: gpr(1, 0), Src0: gpr(0, 0)},
			}}),
			want: "outside slot t",
		},
		{
			name: "empty bundle inside populated clause",
			prog: aluProgram(
				Bundle{Ops: []ScalarOp{{Slot: SlotX, Op: AMov, Dst: gpr(1, 0), Src0: gpr(0, 0)}}},
				Bundle{},
			),
			want: "empty bundle",
		},
		{
			name: "empty TEX clause",
			prog: new(Program).AddTEX(),
			want: "empty TEX clause",
		},
		{
			name: "empty export clause",
			prog: new(Program).AddExports(ClauseEXP),
			want: "empty export clause",
		},
		{
			name: "unknown clause kind",
			prog: new(Program).AddExports(ClauseKind(9), Export{}),
			want: "unknown kind",
		},
		{
			name: "negative GPR count",
			prog: &Program{GPRCount: -1},
			want: "negative GPR count",
		},
		{
			name: "negative channel",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: SlotX, Op: AMov, Dst: gpr(1, -1), Src0: gpr(0, 0)},
			}}),
			want: "channel",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.prog.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid program")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStatsEdgeShapes pins the aggregate math on degenerate programs —
// the divide-by-zero guards and the KGPR-only GPR-write accounting.
func TestStatsEdgeShapes(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want Stats
	}{
		{
			name: "empty program",
			prog: &Program{GPRCount: 2},
			want: Stats{GPRs: 2},
		},
		{
			name: "fetch only: SKA ratio stays zero without bundles",
			prog: new(Program).AddTEX(Fetch{Dst: 1}, Fetch{Dst: 2}),
			want: Stats{TEXClauses: 1, FetchOps: 2, GPRWrites: 2},
		},
		{
			name: "ALU only: no fetches means no ratio",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: SlotX, Op: AAdd, Dst: gpr(1, 0), Src0: gpr(0, 0), Src1: gpr(0, 1)},
				{Slot: SlotY, Op: AAdd, Dst: none(), Src0: gpr(0, 0), Src1: gpr(0, 1)},
			}}),
			// Two scalar ops in one bundle; only the KGPR destination
			// counts as a register-file write.
			want: Stats{ALUClauses: 1, ALUBundles: 1, ALUPacking: 2, GPRWrites: 1},
		},
		{
			name: "temp destinations are not GPR writes",
			prog: aluProgram(Bundle{Ops: []ScalarOp{
				{Slot: SlotX, Op: AMov, Dst: Operand{Kind: KTemp, Index: 0}, Src0: gpr(0, 0)},
			}}),
			want: Stats{ALUClauses: 1, ALUBundles: 1, ALUPacking: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err != nil {
				t.Fatalf("fixture invalid: %v", err)
			}
			if got := tc.prog.Stats(); got != tc.want {
				t.Errorf("Stats() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestDisassembleEdgeOperands renders every operand storage class and
// both fetch/export mnemonics, then checks the output is a fixpoint of
// itself on re-render — the stability property the conformance oracles
// assert on random programs.
func TestDisassembleEdgeOperands(t *testing.T) {
	p := (&Program{Name: "edges", Mode: il.Compute, Type: il.Float4, GPRCount: 3}).
		AddTEX(Fetch{Dst: 1, Coord: 0, Resource: 0, Global: true, ElemBytes: 16}).
		AddALU(
			Bundle{Ops: []ScalarOp{
				{Slot: SlotX, Op: AAdd, Dst: none(), Src0: gpr(1, 0), Src1: Operand{Kind: KZero}},
				{Slot: SlotT, Op: ARcp, Dst: Operand{Kind: KTemp, Index: 1, Chan: 2}, Src0: Operand{Kind: KConst, Index: 3, Chan: 1}},
			}},
			Bundle{Ops: []ScalarOp{
				{Slot: SlotY, Op: AMul, Dst: gpr(2, 1), Src0: Operand{Kind: KPV, Chan: 0}, Src1: Operand{Kind: KPS}},
			}},
		).
		AddExports(ClauseMEM, Export{Target: 0, Src: 2, Global: true, ElemBytes: 16})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Disassemble(p)
	for _, want := range []string{
		"VFETCH",     // global fetch mnemonic
		"____",       // PV-only destination
		"0.0f",       // literal zero operand
		"KC0[3].y",   // constant file operand
		"T1.z",       // clause temporary
		"PV.x", "PS", // forwarding network operands
		"MEM_EXPORT_WRITE: RAT(0), R2",
		"END_OF_PROGRAM",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VALID_PIX") {
		t.Error("compute-mode disassembly carries the pixel-shader VALID_PIX tag")
	}
	if again := Disassemble(p); again != out {
		t.Error("Disassemble is not deterministic")
	}
}

// TestDisassembleEmptyProgram: no clauses is legal (Validate accepts it)
// and must render header + terminator, not panic.
func TestDisassembleEmptyProgram(t *testing.T) {
	p := &Program{Name: "void", Mode: il.Pixel, Type: il.Float}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Disassemble(p)
	if !strings.HasPrefix(out, "; -------- Disassembly: void") || !strings.HasSuffix(out, "END_OF_PROGRAM\n") {
		t.Errorf("unexpected empty-program rendering:\n%s", out)
	}
}
