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
	"math"
	"strings"

	"amdgpubench/internal/il"
)

// Slot identifies one lane of a VLIW bundle.
type Slot int8

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
type AOp uint8

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
type OperandKind uint8

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
// The fields are as narrow as the encodings they model, so an operand
// is four bytes and a compiled program costs little to keep.
type Operand struct {
	Kind  OperandKind
	Chan  int8  // channel 0..3 (x..w)
	Index int16 // register number for KGPR/KTemp, element for KConst
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
	Dst       int16 // destination GPR
	Coord     int16 // GPR holding the (x, y) coordinate / linear id
	Resource  int16 // input resource index
	Global    bool  // true for uncached global memory reads
	ElemBytes uint8 // bytes fetched per thread (4 for float, 16 for float4)
}

// Export is one output write in an export clause.
type Export struct {
	Target    int16 // color buffer / output buffer index
	Src       int16 // source GPR
	Global    bool  // true for global memory writes, false for streaming stores
	ElemBytes uint8 // bytes stored per thread
}

// MaxIndex is the largest register, resource or constant index the
// narrow instruction fields encode.
const MaxIndex = math.MaxInt16

// ClauseKind discriminates clause types.
type ClauseKind uint8

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

// Clause is one control-flow clause: a kind and a range of its kind's
// program-wide slab. A TEX clause's instructions are Fetches[Start:
// Start+N], an ALU clause's Bundles[...], an EXP or MEM clause's
// Exports[...]. The clauses of one slab cover it in order, each
// starting where the previous one ended.
type Clause struct {
	Kind  ClauseKind
	Start int32 // index of the clause's first instruction in its slab
	N     int32 // instruction count
}

// Len returns the clause's instruction count in its native unit (fetches,
// bundles, or exports).
func (c Clause) Len() int { return int(c.N) }

// Program is a compiled kernel: its clause sequence, the three slabs
// the clauses index, and the resource footprint the hardware scheduler
// cares about.
type Program struct {
	Name     string
	Mode     il.ShaderMode
	Type     il.DataType
	Clauses  []Clause
	Fetches  []Fetch  // every TEX clause's fetches, in clause order
	Bundles  []Bundle // every ALU clause's bundles, in clause order
	Exports  []Export // every EXP and MEM clause's exports, in clause order
	GPRCount int      // peak general-purpose registers per thread
}

// FetchesOf returns a TEX clause's fetches, capped at their length.
func (p *Program) FetchesOf(c Clause) []Fetch {
	e := c.Start + c.N
	return p.Fetches[c.Start:e:e]
}

// BundlesOf returns an ALU clause's bundles, capped at their length.
func (p *Program) BundlesOf(c Clause) []Bundle {
	e := c.Start + c.N
	return p.Bundles[c.Start:e:e]
}

// ExportsOf returns an EXP or MEM clause's exports, capped at their
// length.
func (p *Program) ExportsOf(c Clause) []Export {
	e := c.Start + c.N
	return p.Exports[c.Start:e:e]
}

// AddTEX appends a TEX clause holding fs and returns p.
func (p *Program) AddTEX(fs ...Fetch) *Program {
	p.Clauses = append(p.Clauses, Clause{Kind: ClauseTEX, Start: int32(len(p.Fetches)), N: int32(len(fs))})
	p.Fetches = append(p.Fetches, fs...)
	return p
}

// AddALU appends an ALU clause holding bs and returns p.
func (p *Program) AddALU(bs ...Bundle) *Program {
	p.Clauses = append(p.Clauses, Clause{Kind: ClauseALU, Start: int32(len(p.Bundles)), N: int32(len(bs))})
	p.Bundles = append(p.Bundles, bs...)
	return p
}

// AddExports appends an export clause of kind (ClauseEXP or ClauseMEM)
// holding es and returns p.
func (p *Program) AddExports(kind ClauseKind, es ...Export) *Program {
	p.Clauses = append(p.Clauses, Clause{Kind: kind, Start: int32(len(p.Exports)), N: int32(len(es))})
	p.Exports = append(p.Exports, es...)
	return p
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
	for _, c := range p.Clauses {
		switch c.Kind {
		case ClauseTEX:
			s.TEXClauses++
			s.FetchOps += c.Len()
			s.GPRWrites += c.Len()
		case ClauseALU:
			s.ALUClauses++
			s.ALUBundles += c.Len()
			for _, b := range p.BundlesOf(c) {
				scalar += len(b.Ops)
				for _, op := range b.Ops {
					if op.Dst.Kind == KGPR {
						s.GPRWrites++
					}
				}
			}
		default:
			s.ExportOps += c.Len()
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

// Validate checks structural invariants: each slab is covered in order
// by the non-empty clauses of its kind, slot occupancy is unique per
// bundle, at most one transcendental op per bundle, and operand
// channels are in range.
func (p *Program) Validate() error {
	// next is where the next clause of each slab must start: fetches,
	// bundles, exports.
	var next [3]int32
	sizes := [3]int{len(p.Fetches), len(p.Bundles), len(p.Exports)}
	for ci, c := range p.Clauses {
		var slab int
		switch c.Kind {
		case ClauseTEX:
			slab = 0
		case ClauseALU:
			slab = 1
		case ClauseEXP, ClauseMEM:
			slab = 2
		default:
			return fmt.Errorf("isa: clause %d: unknown kind %d", ci, c.Kind)
		}
		if c.N <= 0 {
			if slab == 2 {
				return fmt.Errorf("isa: clause %d: empty export clause", ci)
			}
			return fmt.Errorf("isa: clause %d: empty %s clause", ci, c.Kind)
		}
		if c.Start != next[slab] || int(c.Start)+int(c.N) > sizes[slab] {
			return fmt.Errorf("isa: clause %d: %s range [%d,%d) does not continue its slab at %d of %d",
				ci, c.Kind, c.Start, int(c.Start)+int(c.N), next[slab], sizes[slab])
		}
		next[slab] += c.N
		switch c.Kind {
		case ClauseALU:
			for bi, b := range p.BundlesOf(c) {
				if err := b.validate(); err != nil {
					return fmt.Errorf("isa: clause %d bundle %d: %w", ci, bi, err)
				}
			}
		case ClauseEXP, ClauseMEM:
			for _, e := range p.ExportsOf(c) {
				if (c.Kind == ClauseMEM) != e.Global {
					return fmt.Errorf("isa: clause %d: export global flag disagrees with clause kind", ci)
				}
			}
		}
	}
	for slab, n := range next {
		if int(n) != sizes[slab] {
			return fmt.Errorf("isa: %d of %d %s instructions belong to no clause",
				sizes[slab]-int(n), sizes[slab], [3]string{"fetch", "ALU", "export"}[slab])
		}
	}
	if p.GPRCount < 0 {
		return fmt.Errorf("isa: negative GPR count")
	}
	return nil
}

// validate checks one bundle: non-empty, each slot used once, a
// transcendental only in slot t, every operand channel in 0..3.
func (b Bundle) validate() error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("empty bundle")
	}
	var seen [NumSlots]bool
	for _, op := range b.Ops {
		if op.Slot < 0 || op.Slot >= NumSlots {
			return fmt.Errorf("bad slot %d", op.Slot)
		}
		if seen[op.Slot] {
			return fmt.Errorf("slot %s used twice", op.Slot)
		}
		seen[op.Slot] = true
		if op.Op.IsTrans() && op.Slot != SlotT {
			return fmt.Errorf("transcendental %v outside slot t", op.Op)
		}
		// As unsigned bytes a negative channel reads above 3 too.
		if c := max(uint8(op.Dst.Chan), uint8(op.Src0.Chan), uint8(op.Src1.Chan)); c > 3 {
			return fmt.Errorf("channel %d out of range", int8(c))
		}
	}
	return nil
}

// Disassemble renders the program in the layout of the paper's Fig. 2.
func Disassemble(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; -------- Disassembly: %s (%s, %s) --------\n", p.Name, p.Mode, p.Type)
	addr := 16 // pretend clause bodies start at instruction word 16
	instr := 0
	for ci, c := range p.Clauses {
		switch c.Kind {
		case ClauseTEX:
			valid := ""
			if p.Mode == il.Pixel {
				valid = " VALID_PIX"
			}
			fmt.Fprintf(&b, "%02d TEX: ADDR(%d) CNT(%d)%s\n", ci, addr, c.Len(), valid)
			for _, f := range p.FetchesOf(c) {
				mnem := "SAMPLE"
				if f.Global {
					mnem = "VFETCH"
				}
				fmt.Fprintf(&b, "%6d  %s R%d, R%d.xyxx, t%d, s0  UNNORM(XYZW)\n", instr, mnem, f.Dst, f.Coord, f.Resource)
				instr++
			}
			addr += c.Len() * 2
		case ClauseALU:
			fmt.Fprintf(&b, "%02d ALU: ADDR(%d) CNT(%d)\n", ci, addr, c.Len())
			for _, bu := range p.BundlesOf(c) {
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
			addr += c.Len()
		case ClauseEXP:
			for _, e := range p.ExportsOf(c) {
				fmt.Fprintf(&b, "%02d EXP_DONE: PIX%d, R%d\n", ci, e.Target, e.Src)
			}
		case ClauseMEM:
			for _, e := range p.ExportsOf(c) {
				fmt.Fprintf(&b, "%02d MEM_EXPORT_WRITE: RAT(%d), R%d\n", ci, e.Target, e.Src)
			}
		}
	}
	b.WriteString("END_OF_PROGRAM\n")
	return b.String()
}
