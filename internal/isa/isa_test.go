package isa

import (
	"strings"
	"testing"
	"unsafe"

	"amdgpubench/internal/il"
)

func scalarOp(slot Slot, op AOp, dst, a, b Operand) ScalarOp {
	return ScalarOp{Slot: slot, Op: op, Dst: dst, Src0: a, Src1: b}
}

func gpr(i int16, c int8) Operand  { return Operand{Kind: KGPR, Index: i, Chan: c} }
func pv(c int8) Operand            { return Operand{Kind: KPV, Chan: c} }
func temp(i int16, c int8) Operand { return Operand{Kind: KTemp, Index: i, Chan: c} }
func none() Operand                { return Operand{Kind: KNone} }

func sampleProgram() *Program {
	p := &Program{Name: "fig2", Mode: il.Pixel, Type: il.Float4, GPRCount: 4}
	return p.AddTEX(
		Fetch{Dst: 1, Coord: 0, Resource: 0, ElemBytes: 16},
		Fetch{Dst: 2, Coord: 0, Resource: 1, ElemBytes: 16},
		Fetch{Dst: 3, Coord: 0, Resource: 2, ElemBytes: 16},
	).AddALU(
		Bundle{Ops: []ScalarOp{
			scalarOp(SlotX, AAdd, none(), gpr(1, 3), gpr(2, 3)),
			scalarOp(SlotY, AAdd, none(), gpr(1, 2), gpr(2, 2)),
			scalarOp(SlotZ, AAdd, none(), gpr(1, 1), gpr(2, 1)),
			scalarOp(SlotW, AAdd, none(), gpr(1, 0), gpr(2, 0)),
		}},
		Bundle{Ops: []ScalarOp{
			scalarOp(SlotX, AAdd, temp(1, 0), gpr(3, 3), pv(0)),
			scalarOp(SlotY, AAdd, temp(1, 1), gpr(3, 2), pv(1)),
		}},
	).AddExports(ClauseEXP, Export{Target: 0, Src: 0, ElemBytes: 16})
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsMixedPayloads: a clause whose kind names another
// kind's slab, or whose range leaves its own slab, is rejected.
func TestValidateRejectsMixedPayloads(t *testing.T) {
	p := sampleProgram()
	p.Clauses[0].Kind = ClauseALU // the TEX clause's range read as bundles
	if err := p.Validate(); err == nil {
		t.Fatal("TEX clause over the bundle slab accepted")
	}
	p = sampleProgram()
	p.Clauses[0].N++
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "does not continue its slab") {
		t.Fatalf("TEX clause past the fetch slab: got %v", err)
	}
	// Two TEX clauses that cover the slab out of order: the slab order
	// is the clause order (sim reads the fetch schedule off the slab).
	p = sampleProgram()
	p.Clauses[0] = Clause{Kind: ClauseTEX, Start: 1, N: 2}
	p.Clauses = append(p.Clauses, Clause{Kind: ClauseTEX, Start: 0, N: 1})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "does not continue its slab") {
		t.Fatalf("TEX clauses out of slab order: got %v", err)
	}
	p = sampleProgram()
	p.Fetches = append(p.Fetches, Fetch{Dst: 1})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "belong to no clause") {
		t.Fatalf("fetch outside every clause: got %v", err)
	}
}

func TestValidateRejectsDuplicateSlot(t *testing.T) {
	p := sampleProgram()
	ops := p.BundlesOf(p.Clauses[1])[0].Ops
	ops[1].Slot = ops[0].Slot
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate slot accepted")
	}
}

func TestValidateRejectsEmptyClause(t *testing.T) {
	p := sampleProgram()
	p.Clauses[1].N = 0
	if err := p.Validate(); err == nil {
		t.Fatal("empty ALU clause accepted")
	}
}

func TestValidateRejectsBadChannel(t *testing.T) {
	p := sampleProgram()
	p.Bundles[0].Ops[0].Src0.Chan = 5
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
}

func TestValidateRejectsGlobalFlagMismatch(t *testing.T) {
	p := sampleProgram()
	p.Exports[0].Global = true // EXP clause with a global write
	if err := p.Validate(); err == nil {
		t.Fatal("EXP clause with global export accepted")
	}
}

func TestStats(t *testing.T) {
	p := sampleProgram()
	st := p.Stats()
	if st.FetchOps != 3 || st.TEXClauses != 1 {
		t.Errorf("fetch stats = %d ops / %d clauses, want 3/1", st.FetchOps, st.TEXClauses)
	}
	if st.ALUBundles != 2 || st.ALUClauses != 1 {
		t.Errorf("ALU stats = %d bundles / %d clauses, want 2/1", st.ALUBundles, st.ALUClauses)
	}
	if st.ExportOps != 1 {
		t.Errorf("exports = %d, want 1", st.ExportOps)
	}
	if st.ALUPacking != 3.0 { // (4 + 2) scalar ops over 2 bundles
		t.Errorf("packing = %v, want 3.0", st.ALUPacking)
	}
	if st.GPRs != 4 {
		t.Errorf("GPRs = %d, want 4", st.GPRs)
	}
}

func TestDisassemblyShape(t *testing.T) {
	dis := Disassemble(sampleProgram())
	for _, want := range []string{
		"00 TEX: ADDR(16) CNT(3) VALID_PIX",
		"SAMPLE R1, R0.xyxx, t0, s0  UNNORM(XYZW)",
		"01 ALU:",
		"x: ADD  ____, R1.w, R2.w",
		"y: ADD  ____, R1.z, R2.z",
		"ADD  T1.x, R3.w, PV.x",
		"02 EXP_DONE: PIX0, R0",
		"END_OF_PROGRAM",
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestOperandStrings(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{gpr(2, 3), "R2.w"},
		{pv(0), "PV.x"},
		{Operand{Kind: KPS}, "PS"},
		{temp(0, 1), "T0.y"},
		{none(), "____"},
		{Operand{Kind: KZero}, "0.0f"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("operand = %q, want %q", got, c.want)
		}
	}
}

func TestSlotAndKindStrings(t *testing.T) {
	if SlotX.String() != "x" || SlotT.String() != "t" || Slot(9).String() != "?" {
		t.Error("slot names wrong")
	}
	if ClauseTEX.String() != "TEX" || ClauseALU.String() != "ALU" ||
		ClauseEXP.String() != "EXP_DONE" || ClauseMEM.String() != "MEM_EXPORT" {
		t.Error("clause kind names wrong")
	}
	if AAdd.String() != "ADD" || AMul.String() != "MUL" || AMov.String() != "MOV" {
		t.Error("ALU op names wrong")
	}
}

func TestClauseLen(t *testing.T) {
	p := sampleProgram()
	if p.Clauses[0].Len() != 3 || p.Clauses[1].Len() != 2 || p.Clauses[2].Len() != 1 {
		t.Error("clause lengths wrong")
	}
}

func TestMemExportDisassembly(t *testing.T) {
	p := (&Program{Name: "gw", Mode: il.Compute, Type: il.Float, GPRCount: 2}).
		AddTEX(Fetch{Dst: 1, Coord: 0, Resource: 0, Global: true, ElemBytes: 4}).
		AddExports(ClauseMEM, Export{Target: 0, Src: 1, Global: true, ElemBytes: 4})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(p)
	if !strings.Contains(dis, "VFETCH") {
		t.Errorf("global read not rendered as VFETCH:\n%s", dis)
	}
	if !strings.Contains(dis, "MEM_EXPORT_WRITE: RAT(0), R1") {
		t.Errorf("global write not rendered as MEM_EXPORT:\n%s", dis)
	}
}

// TestLayoutSizes pins the compact instruction layout a compiled
// program is kept in: narrow fields, and clauses as a kind plus a range
// of a program-wide slab. A Batch=1 chase slot (a TEX clause of one
// fetch, an ALU clause of one one-op bundle) costs 12+8+12+24+14 = 70
// bytes of slabs.
func TestLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"Operand", unsafe.Sizeof(Operand{}), 4},
		{"ScalarOp", unsafe.Sizeof(ScalarOp{}), 14},
		{"Fetch", unsafe.Sizeof(Fetch{}), 8},
		{"Export", unsafe.Sizeof(Export{}), 6},
		{"Clause", unsafe.Sizeof(Clause{}), 12},
		{"Bundle", unsafe.Sizeof(Bundle{}), 24},
	} {
		if c.got > c.max {
			t.Errorf("isa.%s is %d bytes, want <= %d", c.name, c.got, c.max)
		}
	}
}
