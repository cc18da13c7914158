// Package interp provides reference interpreters for IL kernels and for
// compiled ISA programs. They exist for verification: the compiler test
// suite proves, property-style, that ilc.Compile preserves semantics by
// running random kernels through both interpreters and comparing outputs
// element for element. The interpreters execute one thread at a time; they
// model architectural state (GPRs, the PV/PS previous-result registers,
// clause temporaries) but not timing.
package interp

import (
	"fmt"
	"math"

	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

// Vec4 is one 128-bit register value, four float32 lanes.
type Vec4 [4]float32

// Env supplies input data for a kernel execution.
type Env struct {
	W, H int
	// Input returns the element of input resource res at domain position
	// (x, y), lane l. Texture samples and global loads read through the
	// same function; the timing difference between the paths is not the
	// interpreter's concern.
	Input func(res, x, y, l int) float32
	// Const returns constant-buffer element cb0[idx] lane l; nil reads
	// as zero.
	Const func(idx, l int) float32
}

func (e Env) constAt(idx, l int) float32 {
	if e.Const == nil {
		return 0
	}
	return e.Const(idx, l)
}

// Thread identifies the domain position being executed.
type Thread struct{ X, Y int }

// RunIL executes an IL kernel for one thread and returns the values
// written to each output, indexed by output resource.
func RunIL(k *il.Kernel, env Env, th Thread) (map[int]Vec4, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	regs := make([]Vec4, k.NumTemps())
	out := make(map[int]Vec4)
	lanes := k.Type.Lanes()
	for i, in := range k.Code {
		switch in.Op {
		case il.OpSample, il.OpGlobalLoad:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = env.Input(in.Res, th.X, th.Y, l)
			}
			regs[in.Dst] = v
		case il.OpAdd:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = regs[in.SrcA][l] + regs[in.SrcB][l]
			}
			regs[in.Dst] = v
		case il.OpSub:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = regs[in.SrcA][l] - regs[in.SrcB][l]
			}
			regs[in.Dst] = v
		case il.OpMul:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = regs[in.SrcA][l] * regs[in.SrcB][l]
			}
			regs[in.Dst] = v
		case il.OpMov:
			regs[in.Dst] = regs[in.SrcA]
		case il.OpRcp:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = 1 / regs[in.SrcA][l]
			}
			regs[in.Dst] = v
		case il.OpRsq:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = 1 / float32(math.Sqrt(float64(regs[in.SrcA][l])))
			}
			regs[in.Dst] = v
		case il.OpAddC:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = regs[in.SrcA][l] + env.constAt(in.Res, l)
			}
			regs[in.Dst] = v
		case il.OpMulC:
			var v Vec4
			for l := 0; l < lanes; l++ {
				v[l] = regs[in.SrcA][l] * env.constAt(in.Res, l)
			}
			regs[in.Dst] = v
		case il.OpExport, il.OpGlobalStore:
			out[in.Res] = regs[in.SrcA]
		default:
			return nil, fmt.Errorf("interp: instruction %d: unknown opcode %v", i, in.Op)
		}
	}
	return out, nil
}

// machine is the per-thread architectural state of the ISA interpreter.
type machine struct {
	gpr []Vec4
	t   [2]Vec4 // clause temporaries; cleared at clause boundaries
	pv  Vec4    // previous bundle's vector results
	ps  float32 // previous bundle's t-slot result
	env Env     // for constant-file reads
}

func (m *machine) read(o isa.Operand) (float32, error) {
	switch o.Kind {
	case isa.KGPR:
		if o.Index < 0 || int(o.Index) >= len(m.gpr) {
			return 0, fmt.Errorf("interp: GPR R%d out of range (program declared %d)", o.Index, len(m.gpr))
		}
		return m.gpr[o.Index][o.Chan], nil
	case isa.KPV:
		return m.pv[o.Chan], nil
	case isa.KPS:
		return m.ps, nil
	case isa.KTemp:
		if o.Index < 0 || o.Index > 1 {
			return 0, fmt.Errorf("interp: clause temp T%d out of range", o.Index)
		}
		return m.t[o.Index][o.Chan], nil
	case isa.KZero:
		return 0, nil
	case isa.KConst:
		return m.env.constAt(int(o.Index), int(o.Chan)), nil
	}
	return 0, fmt.Errorf("interp: read of operand kind %d", o.Kind)
}

func (m *machine) write(o isa.Operand, v float32) error {
	switch o.Kind {
	case isa.KNone:
		return nil // PV-only destination
	case isa.KGPR:
		if o.Index < 0 || int(o.Index) >= len(m.gpr) {
			return fmt.Errorf("interp: GPR R%d out of range on write", o.Index)
		}
		m.gpr[o.Index][o.Chan] = v
		return nil
	case isa.KTemp:
		if o.Index < 0 || o.Index > 1 {
			return fmt.Errorf("interp: clause temp T%d out of range on write", o.Index)
		}
		m.t[o.Index][o.Chan] = v
		return nil
	}
	return fmt.Errorf("interp: write to operand kind %d", o.Kind)
}

// RunISA executes a compiled program for one thread. The coordinate
// register (R0 by compiler convention) is pre-loaded with the thread
// position, as the rasterizer / dispatcher would.
func RunISA(p *isa.Program, env Env, th Thread) (map[int]Vec4, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	n := p.GPRCount
	if n < 1 {
		n = 1
	}
	m := &machine{gpr: make([]Vec4, n), env: env}
	m.gpr[0] = Vec4{float32(th.X), float32(th.Y), 0, 0}
	lanes := p.Type.Lanes()
	out := make(map[int]Vec4)

	for _, c := range p.Clauses {
		// Clause temporaries are live only inside their clause: they are
		// taken from the register pool per slot and do not hold values
		// across clauses (Section II-A). Model that by clearing them.
		m.t = [2]Vec4{}
		switch c.Kind {
		case isa.ClauseTEX:
			for _, f := range p.FetchesOf(c) {
				if int(f.Dst) >= len(m.gpr) {
					return nil, fmt.Errorf("interp: fetch writes R%d beyond GPR count %d", f.Dst, len(m.gpr))
				}
				var v Vec4
				for l := 0; l < lanes; l++ {
					v[l] = env.Input(int(f.Resource), th.X, th.Y, l)
				}
				m.gpr[f.Dst] = v
			}
		case isa.ClauseALU:
			for _, b := range p.BundlesOf(c) {
				// Co-issue: all slot reads observe pre-bundle state.
				results := make([]float32, len(b.Ops))
				for oi, op := range b.Ops {
					a, err := m.read(op.Src0)
					if err != nil {
						return nil, err
					}
					var bv float32
					if !op.Op.Unary() {
						bv, err = m.read(op.Src1)
						if err != nil {
							return nil, err
						}
					}
					switch op.Op {
					case isa.AAdd:
						results[oi] = a + bv
					case isa.ASub:
						results[oi] = a - bv
					case isa.AMul:
						results[oi] = a * bv
					case isa.AMov:
						results[oi] = a
					case isa.ARcp:
						results[oi] = 1 / a
					case isa.ARsq:
						results[oi] = 1 / float32(math.Sqrt(float64(a)))
					}
				}
				// Commit: destinations, then the PV/PS forwarding network.
				var newPV Vec4 = m.pv
				newPS := m.ps
				for oi, op := range b.Ops {
					if err := m.write(op.Dst, results[oi]); err != nil {
						return nil, err
					}
					if op.Slot == isa.SlotT {
						newPS = results[oi]
					} else {
						newPV[int(op.Slot)] = results[oi]
					}
				}
				m.pv, m.ps = newPV, newPS
			}
		case isa.ClauseEXP, isa.ClauseMEM:
			for _, e := range p.ExportsOf(c) {
				if int(e.Src) >= len(m.gpr) {
					return nil, fmt.Errorf("interp: export reads R%d beyond GPR count %d", e.Src, len(m.gpr))
				}
				out[int(e.Target)] = m.gpr[e.Src]
			}
		}
	}
	return out, nil
}

// OutputsEqual compares two output maps over the first `lanes` lanes.
// Comparison is bitwise so that identically-computed NaNs and infinities
// (reachable through rcp/rsq of zero or negative values) compare equal.
func OutputsEqual(a, b map[int]Vec4, lanes int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		for l := 0; l < lanes; l++ {
			if math.Float32bits(va[l]) != math.Float32bits(vb[l]) {
				return false
			}
		}
	}
	return true
}
