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
	slots []isa.Slot // one slot for scalar, four for float4; a sub-slice of slotOrder
}

// slotOrder backs every packedOp.slots: x..w for a float4 op, one entry
// for a scalar op, and the last entry for the t slot.
var slotOrder = [isa.NumSlots]isa.Slot{isa.SlotX, isa.SlotY, isa.SlotZ, isa.SlotW, isa.SlotT}

// bundleDraft holds its ops inline: a VLIW bundle has at most NumSlots.
type bundleDraft struct {
	ops  [isa.NumSlots]packedOp
	n    int
	used [isa.NumSlots]bool
}

// placed returns the ops placed so far, in placement order.
func (b *bundleDraft) placed() []packedOp { return b.ops[:b.n] }

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

func (b *bundleDraft) place(ilIdx, lane int, vector, trans bool) {
	op := packedOp{ilIdx: ilIdx, lane: lane}
	switch {
	case trans:
		op.slots = slotOrder[isa.SlotT : isa.SlotT+1]
	case vector:
		op.slots = slotOrder[isa.SlotX : isa.SlotW+1]
	default:
		for s := isa.Slot(0); s < isa.NumSlots; s++ {
			if !b.used[s] {
				op.slots = slotOrder[s : s+1]
				break
			}
		}
	}
	for _, s := range op.slots {
		b.used[s] = true
	}
	b.ops[b.n] = op
	b.n++
}

// clauseDraft is a clause being assembled. A TEX or export clause is the
// contiguous IL run [from, to); an ALU clause is its bundles.
type clauseDraft struct {
	kind     isa.ClauseKind
	from, to int
	bundles  []bundleDraft
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
// It reads the sealed kernel's memoized Validate result, so a module
// loaded on every launch of a sweep validates its kernel once.
func Check(k *il.Sealed, spec device.Spec) error {
	return check(k.Kernel, k.Validate(), spec)
}

// check is Check with the kernel's Validate result already in hand.
func check(k *il.Kernel, invalid error, spec device.Spec) error {
	if invalid != nil {
		return fmt.Errorf("ilc: %w", invalid)
	}
	if k.Mode == il.Compute && !spec.SupportsCompute {
		return fmt.Errorf("ilc: %s does not support compute shader mode", spec.Arch)
	}
	return nil
}

// CompileWith lowers an IL kernel with explicit compiler options.
func CompileWith(k *il.Kernel, spec device.Spec, opts Options) (*isa.Program, error) {
	if err := check(k, k.Validate(), spec); err != nil {
		return nil, err
	}

	vals := collectValues(k)
	clauses := formClauses(k, spec, vals)
	assignLocations(k, vals, clauses, opts)
	first, last := scheduleTimes(k, clauses)
	gprCount := allocateGPRs(k, vals, first, last)
	prog := emit(k, vals, clauses, gprCount)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ilc: internal error: emitted invalid program: %w", err)
	}
	return prog, nil
}

// collectValues builds def/use chains for every temporary. A counting
// pass sizes one slab that every value's uses is carved from.
func collectValues(k *il.Kernel) []value {
	vals := make([]value, k.NumTemps())
	for i := range vals {
		vals[i].def = -1
	}
	counts := make([]int, len(vals))
	total := 0
	for i, in := range k.Code {
		if in.Dst != il.NoReg {
			vals[in.Dst].def = i
			vals[in.Dst].fromALU = in.Op.IsALU()
		}
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				counts[s]++
				total++
			}
		}
	}
	uses := make([]int, total)
	for vi, n := range counts {
		vals[vi].uses, uses = uses[:0:n], uses[n:]
	}
	for i, in := range k.Code {
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				vals[s].uses = append(vals[s].uses, i)
			}
		}
	}
	return vals
}

// formClauses segments the IL stream into clause drafts, packing ALU runs
// into VLIW bundles along the way, and records each ALU value's producing
// clause/bundle position in vals. Every clause holds at least one
// instruction, and every bundle at least one op or vector lane, so both
// are sized once up front.
func formClauses(k *il.Kernel, spec device.Spec, vals []value) []clauseDraft {
	clauses := make([]clauseDraft, 0, len(k.Code))
	vector := k.Type == il.Float4
	maxBundles := 0
	for _, in := range k.Code {
		switch {
		case vector && in.Op.IsTrans():
			maxBundles += 4
		case in.Op.IsALU():
			maxBundles++
		}
	}
	arena := make([]bundleDraft, 0, maxBundles)

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
				e := min(s+spec.MaxFetchesPerTEXClause, j)
				clauses = append(clauses, clauseDraft{kind: isa.ClauseTEX, from: s, to: e})
			}
			i = j
		case op.IsALU():
			j := i
			for j < len(k.Code) && k.Code[j].Op.IsALU() {
				j++
			}
			start := len(arena)
			arena = packRun(k, vals, arena, i, j, vector)
			bundles := arena[start:]
			// Split the packed run into clauses at the slot limit and
			// record final positions.
			for s := 0; s < len(bundles); s += spec.MaxSlotsPerALUClause {
				e := min(s+spec.MaxSlotsPerALUClause, len(bundles))
				cd := clauseDraft{kind: isa.ClauseALU, bundles: bundles[s:e]}
				ci := len(clauses)
				for bi := range cd.bundles {
					for _, po := range cd.bundles[bi].placed() {
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
			clauses = append(clauses, clauseDraft{kind: kind, from: i, to: j})
			i = j
		}
	}
	return clauses
}

// packRun performs greedy dependency-aware VLIW packing of the ALU ops in
// k.Code[from:to), appending the run's bundles to arena and returning it.
// Each value's bundle index within the run is stored in vals[].runIdx
// (the last lane's bundle for vector transcendentals, which spread over
// four bundles' t slots).
func packRun(k *il.Kernel, vals []value, arena []bundleDraft, from, to int, vector bool) []bundleDraft {
	start := len(arena)
	placeAt := func(earliest, ilIdx, lane int, vec, trans bool) int {
		bundles := arena[start:]
		for bi := earliest; bi < len(bundles); bi++ {
			if bundles[bi].canHold(vec, trans) {
				bundles[bi].place(ilIdx, lane, vec, trans)
				return bi
			}
		}
		arena = append(arena, bundleDraft{})
		arena[len(arena)-1].place(ilIdx, lane, vec, trans)
		return len(arena) - 1 - start
	}
	for i := from; i < to; i++ {
		in := k.Code[i]
		earliest := 0
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
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
	return arena
}

// assignLocations decides PV / clause-temp / GPR for every value, honoring
// the hardware rules: PV reaches only the next bundle of the same clause;
// clause temporaries do not survive clause boundaries and only
// spec-many exist; fetch results and store sources must be GPRs.
func assignLocations(k *il.Kernel, vals []value, clauses []clauseDraft, opts Options) {
	// Lookups from IL index to (clause, bundle, slot) for ALU ops; clause
	// is -1 for an instruction no bundle holds. Vector transcendentals
	// occupy four bundles, so an op has a first and a last placement: it
	// reads its sources at every placement and its result is complete
	// only after the last.
	type pos struct {
		clause, bundle int
		slot           isa.Slot
	}
	n := len(k.Code)
	posBoth := make([]pos, 2*n)
	posFirst, posLast := posBoth[:n:n], posBoth[n:]
	for i := range posFirst {
		posFirst[i].clause = -1
	}
	for ci := range clauses {
		for bi := range clauses[ci].bundles {
			for _, po := range clauses[ci].bundles[bi].placed() {
				p := pos{ci, bi, po.slots[0]}
				if posFirst[po.ilIdx].clause < 0 {
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
			uf := posFirst[u]
			if uf.clause < 0 { // consumed by a store (or fetch coordinate)
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
			for _, po := range clauses[ci].bundles[bi].placed() {
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
	n := len(k.Code)
	both := make([]int, 2*n)
	first, last = both[:n:n], both[n:]
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
		if cd.kind != isa.ClauseALU {
			for ii := cd.from; ii < cd.to; ii++ {
				touch(ii)
				t++
			}
			continue
		}
		for bi := range cd.bundles {
			for _, po := range cd.bundles[bi].placed() {
				touch(po.ilIdx)
			}
			t++
		}
	}
	return first, last
}

// allocateGPRs performs the linear scan over GPR-resident values and
// returns the register count (including the coordinate register, which
// is live from kernel entry through the last fetch, and is register R0
// as in the paper's Fig. 2). first and last map IL instruction indices
// to the schedule window of their bundle placements: a value is written
// from its definition's FIRST placement and its sources are read until
// the consumer's LAST placement.
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
	ivs := make([]interval, 1, 1+len(vals))
	ivs[0] = interval{vi: -1, def: -1, end: lastFetch}
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
	// relative to IL order. Ties are real (ops packed in one bundle share
	// a time) and sort.Slice is not stable, so the numbering depends on
	// this exact call on this input order.
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].def < ivs[b].def })

	// The live set is a min-heap on end and the free list a min-heap on
	// register number. Expiry pops exactly the intervals a scan of the
	// whole live set would remove, and the smallest freed register is
	// reused, so the numbering does not depend on either heap's order.
	// Every register handed out is live or free, so the count is next.
	live := make(regHeap, 0, len(ivs))
	free := make(regHeap, 0, len(ivs))
	next := 0
	for _, iv := range ivs {
		// Expire intervals that ended at or before this definition; their
		// registers are read before the new value is written.
		for len(live) > 0 && live[0].key <= iv.def {
			reg := live.pop()
			free.push(reg, reg)
		}
		var reg int
		if len(free) > 0 {
			reg = free.pop()
		} else {
			reg = next
			next++
		}
		live.push(iv.end, reg)
		if iv.vi >= 0 {
			// Scalar values occupy the x channel regardless of issue slot
			// (the destination write mask is slot-independent).
			vals[iv.vi].loc = location{kind: locGPR, idx: reg, chn: 0, slot: vals[iv.vi].loc.slot}
		}
	}
	return next
}

// regHeap is a binary min-heap of registers ordered by key.
type regHeap []struct{ key, reg int }

func (h *regHeap) push(key, reg int) {
	*h = append(*h, struct{ key, reg int }{key, reg})
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the entry with the smallest key and returns its register.
func (h *regHeap) pop() int {
	s := *h
	top, last := s[0].reg, len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].key < s[c].key {
			c++
		}
		if s[i].key <= s[c].key {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// srcOperand renders the location of a source value as an ISA operand for
// the given lane (0 for scalar kernels, 0..3 for float4).
func srcOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locPV:
		return isa.Operand{Kind: isa.KPV, Chan: v.chanAt(lane)}
	case locPS:
		return isa.Operand{Kind: isa.KPS}
	case locTemp, locGPR:
		return dstOperand(v, lane)
	}
	return isa.Operand{Kind: isa.KZero}
}

// dstOperand renders a destination; PV/PS-resident values write no
// architectural register (the "____" destinations of Fig. 2).
func dstOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locTemp:
		return isa.Operand{Kind: isa.KTemp, Index: v.loc.idx, Chan: v.chanAt(lane)}
	case locGPR:
		return isa.Operand{Kind: isa.KGPR, Index: v.loc.idx, Chan: v.chanAt(lane)}
	}
	return isa.Operand{Kind: isa.KNone}
}

// chanAt is the channel a lane reads or writes: lane 0 uses the value's
// own channel, float4 lanes 1..3 their own.
func (v *value) chanAt(lane int) int {
	if lane > 0 {
		return lane
	}
	return v.loc.chn
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

// emit produces the final ISA program from the drafts and locations. A
// counting pass sizes one slab each for ops, bundles, fetches and
// exports; every slice handed out is capped at its own length, so an
// append on a shared program copies instead of writing into a
// neighbour's elements.
func emit(k *il.Kernel, vals []value, clauses []clauseDraft, gprCount int) *isa.Program {
	const coordGPR = 0
	var nOps, nBundles, nFetches, nExports int
	for ci := range clauses {
		cd := &clauses[ci]
		switch cd.kind {
		case isa.ClauseTEX:
			nFetches += cd.to - cd.from
		case isa.ClauseALU:
			nBundles += len(cd.bundles)
			for bi := range cd.bundles {
				for _, po := range cd.bundles[bi].placed() {
					nOps += len(po.slots)
				}
			}
		default:
			nExports += cd.to - cd.from
		}
	}
	ops := make([]isa.ScalarOp, 0, nOps)
	bundles := make([]isa.Bundle, 0, nBundles)
	fetches := make([]isa.Fetch, 0, nFetches)
	exports := make([]isa.Export, 0, nExports)

	p := &isa.Program{Name: k.Name, Mode: k.Mode, Type: k.Type, GPRCount: gprCount,
		Clauses: make([]isa.Clause, len(clauses))}
	elem := k.Type.Bytes()
	for ci := range clauses {
		cd := &clauses[ci]
		c := &p.Clauses[ci]
		c.Kind = cd.kind
		switch cd.kind {
		case isa.ClauseTEX:
			start := len(fetches)
			for ii := cd.from; ii < cd.to; ii++ {
				in := k.Code[ii]
				fetches = append(fetches, isa.Fetch{
					Dst:       vals[in.Dst].loc.idx,
					Coord:     coordGPR,
					Resource:  in.Res,
					Global:    in.Op == il.OpGlobalLoad,
					ElemBytes: elem,
				})
			}
			c.Fetches = fetches[start:len(fetches):len(fetches)]
		case isa.ClauseALU:
			bstart := len(bundles)
			for bi := range cd.bundles {
				start := len(ops)
				for _, po := range cd.bundles[bi].placed() {
					in := k.Code[po.ilIdx]
					for li, slot := range po.slots {
						lane := li
						if po.lane >= 0 {
							// One lane of a vector transcendental on the t
							// core; transcendentals take one source.
							lane = po.lane
						}
						sop := isa.ScalarOp{Slot: slot, Op: aop(in.Op),
							Dst: dstOperand(&vals[in.Dst], lane), Src0: srcOperand(&vals[in.SrcA], lane)}
						switch {
						case in.Op.ReadsConst():
							sop.Src1 = isa.Operand{Kind: isa.KConst, Index: in.Res, Chan: li}
						case in.SrcB != il.NoReg:
							sop.Src1 = srcOperand(&vals[in.SrcB], li)
						default:
							sop.Src1 = isa.Operand{Kind: isa.KNone}
						}
						ops = append(ops, sop)
					}
				}
				bundles = append(bundles, isa.Bundle{Ops: ops[start:len(ops):len(ops)]})
			}
			c.Bundles = bundles[bstart:len(bundles):len(bundles)]
		default:
			start := len(exports)
			for ii := cd.from; ii < cd.to; ii++ {
				in := k.Code[ii]
				exports = append(exports, isa.Export{
					Target:    in.Res,
					Src:       vals[in.SrcA].loc.idx,
					Global:    in.Op == il.OpGlobalStore,
					ElemBytes: elem,
				})
			}
			c.Exports = exports[start:len(exports):len(exports)]
		}
	}
	return p
}
