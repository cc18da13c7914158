// Package ilc compiles IL kernels to R700-style ISA programs. It performs
// the lowering steps the paper attributes to the CAL compiler and whose
// side effects the micro-benchmarks measure:
//
//   - clause formation: runs of fetches become TEX clauses (at most
//     MaxFetchesPerTEXClause per clause), runs of ALU ops become ALU
//     clauses (at most MaxSlotsPerALUClause bundles), stores become one
//     export clause;
//   - VLIW packing: independent scalar ops co-issue in one bundle's
//     x/y/z/w/t slots; the suite's dependency chains defeat packing by
//     construction, so their ALU instruction count is data-type
//     independent, exactly as Section III observes;
//   - register allocation: values consumed only by the immediately
//     following bundle ride the previous-vector (PV/PS) path; values live
//     only within one ALU clause use the two clause-temporary registers
//     (T0/T1); everything else — fetch destinations, values crossing
//     clause boundaries, store sources — occupies general purpose
//     registers assigned by a linear scan with reuse. The peak GPR count
//     is what determines simultaneous wavefronts per SIMD engine.
package ilc

import (
	"fmt"
	"sort"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

// locKind says where a value lives.
type locKind int

const (
	locUnset locKind = iota
	locGPR
	locPV   // previous-bundle vector result
	locPS   // previous-bundle scalar (t slot) result
	locTemp // clause temporary T0/T1
)

type location struct {
	kind locKind
	idx  int // GPR number or T register number
	chn  int // channel for scalar values (lane 0 for vectors)
	slot isa.Slot
}

// value tracks one SSA temporary through compilation.
type value struct {
	def         int   // defining IL instruction index
	uses        []int // consuming IL instruction indices, ascending
	fromALU     bool
	clause      int // producer clause (last lane's, for vector trans)
	clauseFirst int // first lane's clause; differs when lanes straddle
	bundle      int // producer bundle index within its clause
	runIdx      int // producer bundle index within its ALU run
	loc         location
	needGPR     bool
	tempCand    bool
	vectorTrans bool // float4 transcendental: lanes spread over 4 bundles
}

// packedOp is one IL ALU op (or one lane of a vector transcendental)
// placed in a bundle. lane is -1 except for vector transcendental lanes,
// which occupy the t slot of four consecutive bundles.
type packedOp struct {
	ilIdx int
	lane  int
	slots []isa.Slot // one slot for scalar, four for float4
}

type bundleDraft struct {
	ops  []packedOp
	used [isa.NumSlots]bool
}

func (b *bundleDraft) canHold(vector, trans bool) bool {
	if trans {
		// Transcendentals issue only on the t core; vector
		// transcendentals are placed lane-wise, one t slot per bundle.
		return !b.used[isa.SlotT]
	}
	if vector {
		return !b.used[isa.SlotX] && !b.used[isa.SlotY] && !b.used[isa.SlotZ] && !b.used[isa.SlotW]
	}
	for s := 0; s < isa.NumSlots; s++ {
		if !b.used[s] {
			return true
		}
	}
	return false
}

func (b *bundleDraft) place(ilIdx, lane int, vector, trans bool) packedOp {
	op := packedOp{ilIdx: ilIdx, lane: lane}
	switch {
	case trans:
		b.used[isa.SlotT] = true
		op.slots = []isa.Slot{isa.SlotT}
	case vector:
		op.slots = []isa.Slot{isa.SlotX, isa.SlotY, isa.SlotZ, isa.SlotW}
		for _, s := range op.slots {
			b.used[s] = true
		}
	default:
		for s := isa.Slot(0); s < isa.NumSlots; s++ {
			if !b.used[s] {
				b.used[s] = true
				op.slots = []isa.Slot{s}
				break
			}
		}
	}
	b.ops = append(b.ops, op)
	return op
}

// clauseDraft is a clause being assembled.
type clauseDraft struct {
	kind    isa.ClauseKind
	fetchIL []int
	bundles []bundleDraft
	storeIL []int
}

// Options selects compiler ablations. The zero value is the normal
// compiler; the ablation benchmarks (DESIGN.md §7) switch individual
// forwarding paths off to quantify what each contributes to the paper's
// register-pressure story.
type Options struct {
	// NoPVForwarding disables the previous-vector/previous-scalar path:
	// every single-consumer value falls back to clause temporaries or
	// general purpose registers.
	NoPVForwarding bool
	// NoClauseTemps disables T0/T1: intra-clause values go straight to
	// general purpose registers, raising the peak GPR count and therefore
	// cutting wavefront occupancy.
	NoClauseTemps bool
}

// Compile lowers an IL kernel to an ISA program for the given device.
func Compile(k *il.Kernel, spec device.Spec) (*isa.Program, error) {
	return CompileWith(k, spec, Options{})
}

// Check reports the error Compile would reject the kernel with on the
// device, without lowering it; past Check only a compiler bug can fail.
func Check(k *il.Kernel, spec device.Spec) error {
	if err := k.Validate(); err != nil {
		return fmt.Errorf("ilc: %w", err)
	}
	if k.Mode == il.Compute && !spec.SupportsCompute {
		return fmt.Errorf("ilc: %s does not support compute shader mode", spec.Arch)
	}
	return nil
}

// CompileWith lowers an IL kernel with explicit compiler options.
func CompileWith(k *il.Kernel, spec device.Spec, opts Options) (*isa.Program, error) {
	if err := Check(k, spec); err != nil {
		return nil, err
	}

	vals := collectValues(k)
	clauses := formClauses(k, spec, vals)
	assignLocations(k, vals, clauses, opts)
	first, last := scheduleTimes(k, clauses)
	gprHigh := allocateGPRs(k, vals, first, last)
	prog := emit(k, vals, clauses, gprHigh)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ilc: internal error: emitted invalid program: %w", err)
	}
	return prog, nil
}

// collectValues builds def/use chains for every temporary.
func collectValues(k *il.Kernel) []value {
	vals := make([]value, k.NumTemps())
	for i := range vals {
		vals[i].def = -1
	}
	for i, in := range k.Code {
		if in.Dst != il.NoReg {
			vals[in.Dst].def = i
			vals[in.Dst].fromALU = in.Op.IsALU()
		}
		for _, s := range []il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				vals[s].uses = append(vals[s].uses, i)
			}
		}
	}
	return vals
}

// formClauses segments the IL stream into clause drafts, packing ALU runs
// into VLIW bundles along the way, and records each ALU value's producing
// clause/bundle position in vals.
func formClauses(k *il.Kernel, spec device.Spec, vals []value) []clauseDraft {
	var clauses []clauseDraft
	vector := k.Type == il.Float4

	i := 0
	for i < len(k.Code) {
		op := k.Code[i].Op
		switch {
		case op.IsFetch():
			j := i
			for j < len(k.Code) && k.Code[j].Op.IsFetch() {
				j++
			}
			for s := i; s < j; s += spec.MaxFetchesPerTEXClause {
				e := s + spec.MaxFetchesPerTEXClause
				if e > j {
					e = j
				}
				cd := clauseDraft{kind: isa.ClauseTEX}
				for x := s; x < e; x++ {
					cd.fetchIL = append(cd.fetchIL, x)
				}
				clauses = append(clauses, cd)
			}
			i = j
		case op.IsALU():
			j := i
			for j < len(k.Code) && k.Code[j].Op.IsALU() {
				j++
			}
			bundles := packRun(k, vals, i, j, vector)
			// Split the packed run into clauses at the slot limit and
			// record final positions.
			for s := 0; s < len(bundles); s += spec.MaxSlotsPerALUClause {
				e := s + spec.MaxSlotsPerALUClause
				if e > len(bundles) {
					e = len(bundles)
				}
				cd := clauseDraft{kind: isa.ClauseALU, bundles: bundles[s:e]}
				ci := len(clauses)
				for bi, b := range cd.bundles {
					for _, po := range b.ops {
						dst := k.Code[po.ilIdx].Dst
						if po.lane <= 0 {
							vals[dst].clauseFirst = ci
						}
						vals[dst].clause = ci
						vals[dst].bundle = bi
					}
				}
				clauses = append(clauses, cd)
			}
			i = j
		default: // stores
			j := i
			for j < len(k.Code) && k.Code[j].Op.IsStore() {
				j++
			}
			kind := isa.ClauseEXP
			if k.Code[i].Op == il.OpGlobalStore {
				kind = isa.ClauseMEM
			}
			cd := clauseDraft{kind: kind}
			for x := i; x < j; x++ {
				cd.storeIL = append(cd.storeIL, x)
			}
			clauses = append(clauses, cd)
			i = j
		}
	}
	return clauses
}

// packRun performs greedy dependency-aware VLIW packing of the ALU ops in
// k.Code[from:to), returning the bundle sequence. Each value's bundle
// index within the run is stored in vals[].runIdx (the last lane's bundle
// for vector transcendentals, which spread over four bundles' t slots).
func packRun(k *il.Kernel, vals []value, from, to int, vector bool) []bundleDraft {
	var bundles []bundleDraft
	placeAt := func(earliest, ilIdx, lane int, vec, trans bool) int {
		for bi := earliest; bi < len(bundles); bi++ {
			if bundles[bi].canHold(vec, trans) {
				bundles[bi].place(ilIdx, lane, vec, trans)
				return bi
			}
		}
		bundles = append(bundles, bundleDraft{})
		bundles[len(bundles)-1].place(ilIdx, lane, vec, trans)
		return len(bundles) - 1
	}
	for i := from; i < to; i++ {
		in := k.Code[i]
		earliest := 0
		for _, s := range []il.Reg{in.SrcA, in.SrcB} {
			if s == il.NoReg {
				continue
			}
			v := &vals[s]
			if v.fromALU && v.def >= from && v.def < i {
				if v.runIdx+1 > earliest {
					earliest = v.runIdx + 1
				}
			}
		}
		trans := in.Op.IsTrans()
		switch {
		case trans && vector:
			// One lane per bundle on the t core: a float4 transcendental
			// costs four bundles, the 4:1 throughput penalty of the
			// single transcendental stream core.
			bi := earliest
			for lane := 0; lane < 4; lane++ {
				bi = placeAt(bi, i, lane, false, true)
				vals[in.Dst].runIdx = bi
				bi++
			}
			vals[in.Dst].vectorTrans = true
		default:
			bi := placeAt(earliest, i, -1, vector && !trans, trans)
			vals[in.Dst].runIdx = bi
		}
	}
	return bundles
}

// assignLocations decides PV / clause-temp / GPR for every value, honoring
// the hardware rules: PV reaches only the next bundle of the same clause;
// clause temporaries do not survive clause boundaries and only
// spec-many exist; fetch results and store sources must be GPRs.
func assignLocations(k *il.Kernel, vals []value, clauses []clauseDraft, opts Options) {
	// Build lookups from IL index to (clause, bundle, slot) for ALU ops.
	// Vector transcendentals occupy four bundles, so an op has a first
	// and a last placement: it reads its sources at every placement and
	// its result is complete only after the last.
	type pos struct {
		clause, bundle int
		slot           isa.Slot
	}
	posFirst := make(map[int]pos)
	posLast := make(map[int]pos)
	for ci := range clauses {
		for bi, b := range clauses[ci].bundles {
			for _, po := range b.ops {
				p := pos{ci, bi, po.slots[0]}
				if _, ok := posFirst[po.ilIdx]; !ok {
					posFirst[po.ilIdx] = p
				}
				posLast[po.ilIdx] = p
			}
		}
	}

	// First pass: classify.
	for vi := range vals {
		v := &vals[vi]
		if v.def < 0 {
			continue
		}
		if !v.fromALU {
			v.needGPR = true // fetch destinations land in GPRs
			continue
		}
		p := posLast[v.def]
		v.loc.slot = p.slot
		allNextBundle := true
		allSameClause := true
		for _, u := range v.uses {
			uf, ok := posFirst[u]
			if !ok { // consumed by a store (or fetch coordinate)
				allNextBundle = false
				allSameClause = false
				break
			}
			ul := posLast[u]
			if uf.clause != p.clause || ul.clause != p.clause {
				allSameClause = false
			}
			if uf.clause != p.clause || uf.bundle != p.bundle+1 ||
				ul.clause != p.clause || ul.bundle != p.bundle+1 {
				allNextBundle = false
			}
		}
		switch {
		case len(v.uses) == 0:
			// Dead ALU value: no architectural storage; every lane's
			// write is discarded (PV-only destination). This must be
			// decided before the vector-transcendental case, or a dead
			// float4 rcp would pin a clause temporary with a zero-length
			// interval and then clobber it from its later lanes.
			v.loc = location{kind: locPV, chn: int(p.slot), slot: p.slot}
		case v.vectorTrans:
			// A float4 transcendental's lanes land in four bundles' PS
			// slots, so only the last lane would survive in PS; the value
			// must live in a real register. If the lanes straddled an
			// ALU clause split, clause temporaries are also out.
			if allSameClause && v.clauseFirst == v.clause {
				v.tempCand = true
			} else {
				v.needGPR = true
			}
		case allNextBundle && !opts.NoPVForwarding:
			if p.slot == isa.SlotT {
				v.loc = location{kind: locPS, slot: p.slot}
			} else {
				v.loc = location{kind: locPV, chn: int(p.slot), slot: p.slot}
			}
		case allSameClause:
			v.tempCand = true
		default:
			v.needGPR = true
		}
	}

	// Second pass: allocate clause temporaries per ALU clause with a
	// small interval scan; candidates that do not fit fall back to GPRs.
	if opts.NoClauseTemps {
		for vi := range vals {
			if vals[vi].tempCand {
				vals[vi].tempCand = false
				vals[vi].needGPR = true
			}
		}
		return
	}
	const numTemps = 2
	for ci := range clauses {
		if clauses[ci].kind != isa.ClauseALU {
			continue
		}
		freeAt := [numTemps]int{} // bundle index at which each T reg frees
		for bi := range clauses[ci].bundles {
			for _, po := range clauses[ci].bundles[bi].ops {
				dst := k.Code[po.ilIdx].Dst
				v := &vals[dst]
				if !v.tempCand || v.clause != ci {
					continue
				}
				if v.loc.kind == locTemp {
					continue // later lane of an already-placed vector trans
				}
				lastUse := bi
				for _, u := range v.uses {
					if posLast[u].bundle > lastUse {
						lastUse = posLast[u].bundle
					}
				}
				assigned := false
				for t := 0; t < numTemps; t++ {
					if freeAt[t] <= bi {
						freeAt[t] = lastUse
						// The destination write mask is independent of
						// the issue slot, so scalar values always live in
						// the x channel of their register.
						v.loc = location{kind: locTemp, idx: t, chn: 0, slot: v.loc.slot}
						assigned = true
						break
					}
				}
				if !assigned {
					v.needGPR = true
				}
			}
		}
	}
}

// scheduleTimes assigns every IL instruction its execution window in the
// final clause schedule: fetches and exports advance time individually,
// while all ops packed into one VLIW bundle share the bundle's time. GPR
// liveness must be computed over these times, not IL order — the packer
// may co-issue an op far earlier than its position in the IL stream. A
// vector transcendental spans four bundles: it WRITES its destination
// from its first lane's time and READS its sources until its last lane's
// time, so both bounds are returned.
func scheduleTimes(k *il.Kernel, clauses []clauseDraft) (first, last []int) {
	first = make([]int, len(k.Code))
	last = make([]int, len(k.Code))
	for i := range first {
		first[i] = -1
	}
	t := 0
	touch := func(ii int) {
		if first[ii] < 0 {
			first[ii] = t
		}
		last[ii] = t
	}
	for ci := range clauses {
		cd := &clauses[ci]
		switch cd.kind {
		case isa.ClauseTEX:
			for _, ii := range cd.fetchIL {
				touch(ii)
				t++
			}
		case isa.ClauseALU:
			for bi := range cd.bundles {
				for _, po := range cd.bundles[bi].ops {
					touch(po.ilIdx)
				}
				t++
			}
		default:
			for _, ii := range cd.storeIL {
				touch(ii)
				t++
			}
		}
	}
	return first, last
}

// allocateGPRs performs the linear scan over GPR-resident values and
// returns the high-water register count (including the coordinate
// register, which is live from kernel entry through the last fetch, and
// is register R0 as in the paper's Fig. 2). first and last map IL
// instruction indices to the schedule window of their bundle placements:
// a value is written from its definition's FIRST placement and its
// sources are read until the consumer's LAST placement.
func allocateGPRs(k *il.Kernel, vals []value, first, last []int) int {
	lastFetch := -1
	for i, in := range k.Code {
		if in.Op.IsFetch() && last[i] > lastFetch {
			lastFetch = last[i]
		}
	}

	type interval struct {
		vi       int // value index, or -1 for the coordinate register
		def, end int
	}
	var ivs []interval
	ivs = append(ivs, interval{vi: -1, def: -1, end: lastFetch})
	for vi := range vals {
		v := &vals[vi]
		if v.def < 0 || !v.needGPR {
			continue
		}
		def := first[v.def]
		end := def
		for _, u := range v.uses {
			if last[u] > end {
				end = last[u]
			}
		}
		ivs = append(ivs, interval{vi: vi, def: def, end: end})
	}
	// Sort by definition time: the packer may have reordered execution
	// relative to IL order.
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].def < ivs[b].def })
	type active struct {
		reg, end int
	}
	var live []active
	var free []int
	next := 0
	high := 0
	for _, iv := range ivs {
		// Expire intervals that ended at or before this definition; their
		// registers are read before the new value is written.
		for j := 0; j < len(live); {
			if live[j].end <= iv.def && !(live[j].end == -1 && iv.def == -1) {
				free = append(free, live[j].reg)
				live = append(live[:j], live[j+1:]...)
			} else {
				j++
			}
		}
		var reg int
		if len(free) > 0 {
			// Reuse the smallest freed register for stable numbering.
			best := 0
			for j := 1; j < len(free); j++ {
				if free[j] < free[best] {
					best = j
				}
			}
			reg = free[best]
			free = append(free[:best], free[best+1:]...)
		} else {
			reg = next
			next++
		}
		live = append(live, active{reg, iv.end})
		if len(live)+len(free) > high {
			high = len(live) + len(free)
		}
		if iv.vi >= 0 {
			// Scalar values occupy the x channel regardless of issue slot
			// (the destination write mask is slot-independent).
			vals[iv.vi].loc = location{kind: locGPR, idx: reg, chn: 0, slot: vals[iv.vi].loc.slot}
		}
	}
	if next > high {
		high = next
	}
	return high
}

// srcOperand renders the location of a source value as an ISA operand for
// the given lane (0 for scalar kernels, 0..3 for float4).
func srcOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locPV:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KPV, Chan: c}
	case locPS:
		return isa.Operand{Kind: isa.KPS}
	case locTemp:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KTemp, Index: v.loc.idx, Chan: c}
	case locGPR:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KGPR, Index: v.loc.idx, Chan: c}
	}
	return isa.Operand{Kind: isa.KZero}
}

// dstOperand renders a destination; PV/PS-resident values write no
// architectural register (the "____" destinations of Fig. 2).
func dstOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locTemp:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KTemp, Index: v.loc.idx, Chan: c}
	case locGPR:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KGPR, Index: v.loc.idx, Chan: c}
	default:
		return isa.Operand{Kind: isa.KNone}
	}
}

func aop(op il.Opcode) isa.AOp {
	switch op {
	case il.OpAdd, il.OpAddC:
		return isa.AAdd
	case il.OpSub:
		return isa.ASub
	case il.OpMul, il.OpMulC:
		return isa.AMul
	case il.OpRcp:
		return isa.ARcp
	case il.OpRsq:
		return isa.ARsq
	default:
		return isa.AMov
	}
}

// emit produces the final ISA program from the drafts and locations.
func emit(k *il.Kernel, vals []value, clauses []clauseDraft, gprCount int) *isa.Program {
	const coordGPR = 0
	p := &isa.Program{Name: k.Name, Mode: k.Mode, Type: k.Type, GPRCount: gprCount}
	elem := k.Type.Bytes()
	for _, cd := range clauses {
		var c isa.Clause
		c.Kind = cd.kind
		switch cd.kind {
		case isa.ClauseTEX:
			for _, ii := range cd.fetchIL {
				in := k.Code[ii]
				c.Fetches = append(c.Fetches, isa.Fetch{
					Dst:       vals[in.Dst].loc.idx,
					Coord:     coordGPR,
					Resource:  in.Res,
					Global:    in.Op == il.OpGlobalLoad,
					ElemBytes: elem,
				})
			}
		case isa.ClauseALU:
			for _, bd := range cd.bundles {
				var b isa.Bundle
				for _, po := range bd.ops {
					in := k.Code[po.ilIdx]
					dv := &vals[in.Dst]
					if po.lane >= 0 {
						// One lane of a vector transcendental on the t core.
						b.Ops = append(b.Ops, isa.ScalarOp{
							Slot: isa.SlotT,
							Op:   aop(in.Op),
							Dst:  dstOperand(dv, po.lane),
							Src0: srcOperand(&vals[in.SrcA], po.lane),
							Src1: isa.Operand{Kind: isa.KNone},
						})
						continue
					}
					for li, slot := range po.slots {
						sop := isa.ScalarOp{Slot: slot, Op: aop(in.Op)}
						sop.Dst = dstOperand(dv, li)
						if len(po.slots) == 1 {
							sop.Dst = dstOperand(dv, 0)
						}
						sop.Src0 = srcOperand(&vals[in.SrcA], li)
						switch {
						case in.Op.ReadsConst():
							sop.Src1 = isa.Operand{Kind: isa.KConst, Index: in.Res, Chan: li}
						case in.SrcB != il.NoReg:
							sop.Src1 = srcOperand(&vals[in.SrcB], li)
						default:
							sop.Src1 = isa.Operand{Kind: isa.KNone}
						}
						b.Ops = append(b.Ops, sop)
					}
				}
				c.Bundles = append(c.Bundles, b)
			}
		default:
			for _, ii := range cd.storeIL {
				in := k.Code[ii]
				c.Exports = append(c.Exports, isa.Export{
					Target:    in.Res,
					Src:       vals[in.SrcA].loc.idx,
					Global:    in.Op == il.OpGlobalStore,
					ElemBytes: elem,
				})
			}
		}
		p.Clauses = append(p.Clauses, c)
	}
	return p
}
