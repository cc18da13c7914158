// Package isa models the R600/R700-family instruction set architecture
// that AMD's CAL compiler lowers IL into: a control-flow program made of
// clauses. TEX clauses hold texture/vertex fetch instructions, ALU clauses
// hold VLIW bundles of up to five scalar operations (slots x, y, z, w and
// the transcendental slot t), and export clauses write color buffers or
// global memory. Data dependencies inside ALU clauses can be carried by
// the previous-vector (PV) register or by clause-temporary registers
// (T0/T1), neither of which survives a clause boundary — exactly the
// machinery the paper's register-usage micro-benchmark manipulates.
package isa

import (
	"fmt"
	"strings"

	"amdgpubench/internal/il"
)

// Slot identifies one lane of a VLIW bundle.
type Slot int

// VLIW slots in disassembly order.
const (
	SlotX Slot = iota
	SlotY
	SlotZ
	SlotW
	SlotT
)

// NumSlots is the VLIW width of a thread processor (4 general stream
// cores + 1 transcendental).
const NumSlots = 5

// String returns the lower-case slot letter used in disassembly.
func (s Slot) String() string {
	switch s {
	case SlotX:
		return "x"
	case SlotY:
		return "y"
	case SlotZ:
		return "z"
	case SlotW:
		return "w"
	case SlotT:
		return "t"
	}
	return "?"
}

// AOp is a scalar ALU operation.
type AOp int

const (
	// AAdd is floating point addition.
	AAdd AOp = iota
	// ASub is floating point subtraction.
	ASub
	// AMul is floating point multiplication.
	AMul
	// AMov copies its first source.
	AMov
	// ARcp is the transcendental reciprocal; executes only in slot t.
	ARcp
	// ARsq is the transcendental reciprocal square root; slot t only.
	ARsq
)

// String returns the ISA mnemonic.
func (o AOp) String() string {
	switch o {
	case AAdd:
		return "ADD"
	case ASub:
		return "SUB"
	case AMul:
		return "MUL"
	case AMov:
		return "MOV"
	case ARcp:
		return "RCP_e"
	case ARsq:
		return "RSQ_e"
	}
	return "?"
}

// IsTrans reports whether the op may only issue on the transcendental
// (t) stream core.
func (o AOp) IsTrans() bool { return o == ARcp || o == ARsq }

// Unary reports whether the op reads a single source.
func (o AOp) Unary() bool { return o == AMov || o == ARcp || o == ARsq }

// OperandKind classifies ALU operand storage.
type OperandKind int

const (
	// KNone marks an absent operand or a PV-only destination (rendered
	// "____" in disassembly, the underline in the paper's Fig. 2).
	KNone OperandKind = iota
	// KGPR is a general purpose register R<n>.
	KGPR
	// KPV is the previous-bundle vector result.
	KPV
	// KPS is the previous-bundle scalar (t slot) result.
	KPS
	// KTemp is a clause-temporary register T<n>, live only within the
	// containing clause.
	KTemp
	// KZero is the constant zero.
	KZero
	// KConst is a constant-buffer element KC0[n]; constants live in the
	// constant file and occupy no general purpose registers.
	KConst
)

// Operand is one ALU operand: a storage kind, register index and channel.
type Operand struct {
	Kind  OperandKind
	Index int // register number for KGPR/KTemp
	Chan  int // channel 0..3 (x..w)
}

var chanNames = [4]string{"x", "y", "z", "w"}

// String renders the operand in disassembly form, e.g. "R2.w", "PV1.x",
// "T0.y", "____".
func (o Operand) String() string {
	switch o.Kind {
	case KNone:
		return "____"
	case KGPR:
		return fmt.Sprintf("R%d.%s", o.Index, chanNames[o.Chan&3])
	case KPV:
		return fmt.Sprintf("PV.%s", chanNames[o.Chan&3])
	case KPS:
		return "PS"
	case KTemp:
		return fmt.Sprintf("T%d.%s", o.Index, chanNames[o.Chan&3])
	case KZero:
		return "0.0f"
	case KConst:
		return fmt.Sprintf("KC0[%d].%s", o.Index, chanNames[o.Chan&3])
	}
	return "?"
}

// ScalarOp is one slot's operation within a bundle.
type ScalarOp struct {
	Slot Slot
	Op   AOp
	Dst  Operand // KGPR, KTemp, or KNone for PV-only results
	Src0 Operand
	Src1 Operand // KNone for MOV
}

// Bundle is one VLIW instruction: up to five scalar ops co-issued on one
// thread processor in the same cycles.
type Bundle struct {
	Ops []ScalarOp
}

// Fetch is one texture-sample or global-read instruction in a TEX clause.
type Fetch struct {
	Dst       int  // destination GPR
	Coord     int  // GPR holding the (x, y) coordinate / linear id
	Resource  int  // input resource index
	Global    bool // true for uncached global memory reads
	ElemBytes int  // bytes fetched per thread (4 for float, 16 for float4)
}

// Export is one output write in an export clause.
type Export struct {
	Target    int  // color buffer / output buffer index
	Src       int  // source GPR
	Global    bool // true for global memory writes, false for streaming stores
	ElemBytes int  // bytes stored per thread
}

// ClauseKind discriminates clause types.
type ClauseKind int

const (
	// ClauseTEX groups fetch instructions.
	ClauseTEX ClauseKind = iota
	// ClauseALU groups VLIW bundles.
	ClauseALU
	// ClauseEXP groups streaming stores to color buffers.
	ClauseEXP
	// ClauseMEM groups global memory writes.
	ClauseMEM
)

// String returns the disassembly clause tag.
func (k ClauseKind) String() string {
	switch k {
	case ClauseTEX:
		return "TEX"
	case ClauseALU:
		return "ALU"
	case ClauseEXP:
		return "EXP_DONE"
	case ClauseMEM:
		return "MEM_EXPORT"
	}
	return "?"
}

// Clause is one control-flow clause. Exactly one of Fetches, Bundles or
// Exports is populated, according to Kind.
type Clause struct {
	Kind    ClauseKind
	Fetches []Fetch
	Bundles []Bundle
	Exports []Export
}

// Len returns the clause's instruction count in its native unit (fetches,
// bundles, or exports).
func (c *Clause) Len() int {
	switch c.Kind {
	case ClauseTEX:
		return len(c.Fetches)
	case ClauseALU:
		return len(c.Bundles)
	default:
		return len(c.Exports)
	}
}

// Program is a compiled kernel: its clause sequence plus the resource
// footprint the hardware scheduler cares about.
type Program struct {
	Name     string
	Mode     il.ShaderMode
	Type     il.DataType
	Clauses  []Clause
	GPRCount int // peak general-purpose registers per thread
}

// Stats summarises a program the way the StreamKernelAnalyzer would.
type Stats struct {
	GPRs        int
	ALUBundles  int
	FetchOps    int
	ExportOps   int
	ALUClauses  int
	TEXClauses  int
	ALUPacking  float64 // average scalar ops per bundle
	ALUFetchSKA float64 // SKA-convention ratio: bundles / (4 * fetches)
	// GPRWrites counts register-file writes per thread (fetch results
	// plus ALU results whose destination is a general purpose register).
	// The PV and clause-temporary forwarding paths exist to keep this
	// number down; the ablation study measures their contribution here.
	GPRWrites int
}

// Stats computes the summary.
func (p *Program) Stats() Stats {
	var s Stats
	s.GPRs = p.GPRCount
	scalar := 0
	for i := range p.Clauses {
		c := &p.Clauses[i]
		switch c.Kind {
		case ClauseTEX:
			s.TEXClauses++
			s.FetchOps += len(c.Fetches)
			s.GPRWrites += len(c.Fetches)
		case ClauseALU:
			s.ALUClauses++
			s.ALUBundles += len(c.Bundles)
			for _, b := range c.Bundles {
				scalar += len(b.Ops)
				for _, op := range b.Ops {
					if op.Dst.Kind == KGPR {
						s.GPRWrites++
					}
				}
			}
		default:
			s.ExportOps += len(c.Exports)
		}
	}
	if s.ALUBundles > 0 {
		s.ALUPacking = float64(scalar) / float64(s.ALUBundles)
	}
	if s.FetchOps > 0 {
		// The SKA reports 1.0 for a 4:1 ALU-op:fetch balance (Section
		// III-A): 16 ALU ops and 4 TEX ops display as 1.0.
		s.ALUFetchSKA = float64(s.ALUBundles) / (4 * float64(s.FetchOps))
	}
	return s
}

// Validate checks structural invariants: clause payloads match their kind,
// slot occupancy is unique per bundle, at most one transcendental op per
// bundle, and operand channels are in range.
func (p *Program) Validate() error {
	for ci := range p.Clauses {
		c := &p.Clauses[ci]
		switch c.Kind {
		case ClauseTEX:
			if len(c.Bundles) != 0 || len(c.Exports) != 0 {
				return fmt.Errorf("isa: clause %d: TEX clause with non-fetch payload", ci)
			}
			if len(c.Fetches) == 0 {
				return fmt.Errorf("isa: clause %d: empty TEX clause", ci)
			}
		case ClauseALU:
			if len(c.Fetches) != 0 || len(c.Exports) != 0 {
				return fmt.Errorf("isa: clause %d: ALU clause with non-ALU payload", ci)
			}
			if len(c.Bundles) == 0 {
				return fmt.Errorf("isa: clause %d: empty ALU clause", ci)
			}
			for bi, b := range c.Bundles {
				var seen [NumSlots]bool
				for _, op := range b.Ops {
					if op.Slot < 0 || op.Slot >= NumSlots {
						return fmt.Errorf("isa: clause %d bundle %d: bad slot %d", ci, bi, op.Slot)
					}
					if seen[op.Slot] {
						return fmt.Errorf("isa: clause %d bundle %d: slot %s used twice", ci, bi, op.Slot)
					}
					seen[op.Slot] = true
					if op.Op.IsTrans() && op.Slot != SlotT {
						return fmt.Errorf("isa: clause %d bundle %d: transcendental %v outside slot t", ci, bi, op.Op)
					}
					for _, o := range []Operand{op.Dst, op.Src0, op.Src1} {
						if o.Chan < 0 || o.Chan > 3 {
							return fmt.Errorf("isa: clause %d bundle %d: channel %d out of range", ci, bi, o.Chan)
						}
					}
				}
				if len(b.Ops) == 0 {
					return fmt.Errorf("isa: clause %d bundle %d: empty bundle", ci, bi)
				}
			}
		case ClauseEXP, ClauseMEM:
			if len(c.Fetches) != 0 || len(c.Bundles) != 0 {
				return fmt.Errorf("isa: clause %d: export clause with non-export payload", ci)
			}
			if len(c.Exports) == 0 {
				return fmt.Errorf("isa: clause %d: empty export clause", ci)
			}
			for _, e := range c.Exports {
				if (c.Kind == ClauseMEM) != e.Global {
					return fmt.Errorf("isa: clause %d: export global flag disagrees with clause kind", ci)
				}
			}
		default:
			return fmt.Errorf("isa: clause %d: unknown kind %d", ci, c.Kind)
		}
	}
	if p.GPRCount < 0 {
		return fmt.Errorf("isa: negative GPR count")
	}
	return nil
}

// Disassemble renders the program in the layout of the paper's Fig. 2.
func Disassemble(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; -------- Disassembly: %s (%s, %s) --------\n", p.Name, p.Mode, p.Type)
	addr := 16 // pretend clause bodies start at instruction word 16
	instr := 0
	for ci := range p.Clauses {
		c := &p.Clauses[ci]
		switch c.Kind {
		case ClauseTEX:
			valid := ""
			if p.Mode == il.Pixel {
				valid = " VALID_PIX"
			}
			fmt.Fprintf(&b, "%02d TEX: ADDR(%d) CNT(%d)%s\n", ci, addr, len(c.Fetches), valid)
			for _, f := range c.Fetches {
				mnem := "SAMPLE"
				if f.Global {
					mnem = "VFETCH"
				}
				fmt.Fprintf(&b, "%6d  %s R%d, R%d.xyxx, t%d, s0  UNNORM(XYZW)\n", instr, mnem, f.Dst, f.Coord, f.Resource)
				instr++
			}
			addr += len(c.Fetches) * 2
		case ClauseALU:
			fmt.Fprintf(&b, "%02d ALU: ADDR(%d) CNT(%d)\n", ci, addr, len(c.Bundles))
			for _, bu := range c.Bundles {
				for oi, op := range bu.Ops {
					prefix := "       "
					if oi == 0 {
						prefix = fmt.Sprintf("%6d ", instr)
					}
					if op.Op.Unary() {
						fmt.Fprintf(&b, "%s%s: %-4s %s, %s\n", prefix, op.Slot, op.Op, op.Dst, op.Src0)
					} else {
						fmt.Fprintf(&b, "%s%s: %-4s %s, %s, %s\n", prefix, op.Slot, op.Op, op.Dst, op.Src0, op.Src1)
					}
				}
				instr++
			}
			addr += len(c.Bundles)
		case ClauseEXP:
			for _, e := range c.Exports {
				fmt.Fprintf(&b, "%02d EXP_DONE: PIX%d, R%d\n", ci, e.Target, e.Src)
			}
		case ClauseMEM:
			for _, e := range c.Exports {
				fmt.Fprintf(&b, "%02d MEM_EXPORT_WRITE: RAT(%d), R%d\n", ci, e.Target, e.Src)
			}
		}
	}
	b.WriteString("END_OF_PROGRAM\n")
	return b.String()
}
