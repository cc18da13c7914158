// Package kerngen generates the micro-benchmark kernels of Section III of
// the paper. Every kernel follows the generic pattern of Fig. 3 — sample
// inputs, fold them into a dependency chain of adds, extend the chain to
// the required ALU count, export the tail — with the per-benchmark
// variations the paper specifies:
//
//   - the ALU:Fetch kernel sizes the chain as ratio x 4 x inputs (the SKA
//     convention where 1.0 means four ALU ops per fetch);
//   - the read-latency kernel fixes the chain to inputs-1 ops so fetches
//     stay the bottleneck;
//   - the write-latency kernel holds inputs (8) and the ALU count constant
//     and exports the chain tail to a growing number of outputs, keeping
//     register usage pinned to the input count;
//   - the register-usage kernel (Fig. 6) splits sampling into an initial
//     group plus `step` later groups of `space` fetches placed right
//     before their uses, shrinking peak register pressure;
//   - the clause-usage control kernel (Fig. 5) uses the same ALU structure
//     but samples everything up front, so register pressure stays high —
//     the control proving Fig. 16's gains come from registers, not from
//     moving ALU work between clauses.
//
// The chain's data dependencies defeat VLIW packing, making the ALU
// instruction count independent of the data type, exactly as the paper
// requires for controlling the ALU:Fetch ratio.
package kerngen

import (
	"fmt"

	"amdgpubench/internal/il"
)

// Params configures a generated kernel.
type Params struct {
	Name       string
	Mode       il.ShaderMode
	Type       il.DataType
	Inputs     int
	Outputs    int
	InputSpace il.MemSpace
	OutSpace   il.MemSpace
	// ALUFetchRatio is the SKA-convention ratio; the generated ALU op
	// count is ratio x 4 x inputs (Section III-A).
	ALUFetchRatio float64
	// ALUOps, when positive, overrides the ratio-derived op count.
	ALUOps int
	// Space and Step shape the register-usage kernel (Fig. 6).
	Space, Step int
	// Constants declares a constant buffer of this many elements and
	// folds each into the dependency chain once (via addc/mulc). The
	// paper lists the number of constants among every micro-benchmark's
	// kernel parameters; constants occupy no registers and no fetch
	// bandwidth, which the constants sweep verifies.
	Constants int
}

func (p Params) normalize() (Params, error) {
	if p.Inputs < 2 {
		return p, fmt.Errorf("kerngen: need at least 2 inputs, got %d", p.Inputs)
	}
	if p.Outputs < 1 {
		p.Outputs = 1
	}
	if p.Mode == il.Compute && p.OutSpace == il.TextureSpace {
		return p, fmt.Errorf("kerngen: compute mode cannot use streaming stores")
	}
	if p.Name == "" {
		p.Name = "kernel"
	}
	return p, nil
}

// aluOps resolves the requested ALU op count.
func (p Params) aluOps() int {
	if p.ALUOps > 0 {
		return p.ALUOps
	}
	n := int(p.ALUFetchRatio * 4 * float64(p.Inputs))
	if n < 1 {
		n = 1
	}
	return n
}

// chainState tracks the dependency chain while emitting ALU ops.
type chainState struct {
	k           *il.Kernel
	next        il.Reg
	prev, prev2 il.Reg
	emitted     int
}

func (c *chainState) fold(src il.Reg) {
	c.k.Code = append(c.k.Code, il.Instr{Op: il.OpAdd, Dst: c.next, SrcA: c.prev, SrcB: src, Res: -1})
	c.prev2, c.prev = c.prev, c.next
	c.next++
	c.emitted++
}

func (c *chainState) extend() {
	c.k.Code = append(c.k.Code, il.Instr{Op: il.OpAdd, Dst: c.next, SrcA: c.prev, SrcB: c.prev2, Res: -1})
	c.prev2, c.prev = c.prev, c.next
	c.next++
	c.emitted++
}

// foldConst continues the chain through a constant-buffer element.
func (c *chainState) foldConst(idx int) {
	c.k.Code = append(c.k.Code, il.Instr{Op: il.OpAddC, Dst: c.next, SrcA: c.prev, SrcB: il.NoReg, Res: idx})
	c.prev2, c.prev = c.prev, c.next
	c.next++
	c.emitted++
}

// Prepared is one generator call with its parameters checked and its
// defaults filled in: everything known about the kernel before its code
// exists. Preparing is cheap, and it is where every parameter error
// surfaces, so a caller can name and plan a kernel without building it;
// Build makes the code.
type Prepared struct {
	// Params are the settled parameters: Name and Outputs defaulted,
	// ALUOps the exact ALU op count the kernel carries.
	Params Params
	body   body
}

// body selects the code a Prepared builds.
type body uint8

const (
	bodyGeneric body = iota
	bodyRegisterUsage
	bodyClauseUsage
)

// Build makes the kernel and validates it: a kernel that fails its own
// check is a generator bug, returned as an error.
func (pr Prepared) Build() (*il.Kernel, error) {
	p := pr.Params
	k := &il.Kernel{
		Name: p.Name, Mode: p.Mode, Type: p.Type,
		NumInputs: p.Inputs, NumOutputs: p.Outputs,
		InputSpace: p.InputSpace, OutSpace: p.OutSpace,
		// Every input is sampled once, the chain is exactly ALUOps long
		// and every output stores once: the code never grows.
		Code: make([]il.Instr, 0, p.Inputs+p.ALUOps+p.Outputs),
	}
	if pr.body == bodyGeneric {
		generic(k, p)
	} else {
		grouped(k, p, pr.body == bodyClauseUsage)
	}
	return finish(k)
}

// build is a generator's prepare step followed by Build.
func build(pr Prepared, err error) (*il.Kernel, error) {
	if err != nil {
		return nil, err
	}
	return pr.Build()
}

// Generic builds the Fig. 3 kernel: sample all inputs up front, fold, pad
// the chain to the requested ALU count, export. The ALU count includes the
// fold ops, mirroring the paper's generator where the fold decrements the
// remaining op budget.
func Generic(p Params) (*il.Kernel, error) { return build(PrepareGeneric(p)) }

// PrepareGeneric is Generic's prepare step.
func PrepareGeneric(p Params) (Prepared, error) {
	p, err := p.normalize()
	if err != nil {
		return Prepared{}, err
	}
	// The fold alone needs inputs-1 ops; every input must be used.
	p.ALUOps = max(p.aluOps(), p.Inputs-1)
	return Prepared{Params: p, body: bodyGeneric}, nil
}

func generic(k *il.Kernel, p Params) {
	ops := p.ALUOps
	sample(k, fetchOp(p), 0, p.Inputs)
	k.NumConsts = p.Constants
	c := &chainState{k: k, next: il.Reg(p.Inputs), prev: 0, prev2: 0}
	for i := 1; i < p.Inputs; i++ {
		c.fold(il.Reg(i))
	}
	// Fold each declared constant into the chain exactly once, then pad
	// with plain chain ops; the op count stays exactly `ops`.
	for idx := 0; idx < p.Constants && c.emitted < ops; idx++ {
		c.foldConst(idx)
	}
	for c.emitted < ops {
		c.extend()
	}
	emitStores(k, p, c.prev)
}

// ALUFetch builds the Section III-A kernel for a given ratio.
func ALUFetch(p Params) (*il.Kernel, error) { return build(PrepareALUFetch(p)) }

// PrepareALUFetch is ALUFetch's prepare step.
func PrepareALUFetch(p Params) (Prepared, error) {
	if p.ALUFetchRatio <= 0 && p.ALUOps <= 0 {
		return Prepared{}, fmt.Errorf("kerngen: ALU:Fetch kernel needs a positive ratio")
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("alufetch_r%.2f", p.ALUFetchRatio)
	}
	return PrepareGeneric(p)
}

// ReadLatency builds the Section III-B kernel: the ALU count is pinned to
// inputs-1 (the fold only), keeping the fetch path the bottleneck while
// the input count sweeps.
func ReadLatency(p Params) (*il.Kernel, error) { return build(PrepareReadLatency(p)) }

// PrepareReadLatency is ReadLatency's prepare step.
func PrepareReadLatency(p Params) (Prepared, error) {
	p.ALUOps = p.Inputs - 1
	p.ALUFetchRatio = 0
	if p.Name == "" {
		p.Name = fmt.Sprintf("readlat_i%d", p.Inputs)
	}
	return PrepareGeneric(p)
}

// WriteLatency builds the Section III-C kernel: a constant input count
// (the paper uses eight) and a constant, low ALU count, with the chain
// tail exported to every output. Register usage depends on the inputs, not
// the outputs, because all outputs export the same staged value.
func WriteLatency(p Params) (*il.Kernel, error) { return build(PrepareWriteLatency(p)) }

// PrepareWriteLatency is WriteLatency's prepare step.
func PrepareWriteLatency(p Params) (Prepared, error) {
	if p.Inputs == 0 {
		p.Inputs = 8
	}
	if p.ALUOps <= 0 {
		p.ALUOps = 2 * p.Inputs // low constant: enough to use all inputs
	}
	p.ALUFetchRatio = 0
	if p.Name == "" {
		p.Name = fmt.Sprintf("writelat_o%d", p.Outputs)
	}
	return PrepareGeneric(p)
}

// PrepareDomain prepares the Section III-D kernel: eight inputs, one
// output and an ALU:Fetch ratio of 10, so the ALU operations are the
// bottleneck while the domain size sweeps.
func PrepareDomain(p Params) (Prepared, error) {
	if p.Inputs == 0 {
		p.Inputs = 8
	}
	p.Outputs = 1
	p.ALUFetchRatio = 10
	p.ALUOps = 0
	if p.Name == "" {
		p.Name = "domain"
	}
	return PrepareGeneric(p)
}

// RegisterUsage builds the Fig. 6 kernel: sample inputs - space*step
// inputs up front, then before each of `step` ALU blocks sample `space`
// more inputs and fold them in immediately. Peak register pressure tracks
// the up-front group, so sweeping step trades registers for wavefronts.
func RegisterUsage(p Params) (*il.Kernel, error) { return build(PrepareRegisterUsage(p)) }

// PrepareRegisterUsage is RegisterUsage's prepare step.
func PrepareRegisterUsage(p Params) (Prepared, error) { return prepareGrouped(p, false) }

// PrepareClauseUsage prepares the Fig. 5 control kernel: identical ALU
// structure to RegisterUsage — the same inputs folded in at the same
// chain positions — but with every input sampled at the beginning, so
// register pressure stays at its maximum for any step value. The paper
// used it to show the register-usage gains do not come from
// fetch-latency hiding or from moving ALU work across clauses.
func PrepareClauseUsage(p Params) (Prepared, error) { return prepareGrouped(p, true) }

func prepareGrouped(p Params, upfront bool) (Prepared, error) {
	kind, b := "register-usage", bodyRegisterUsage
	if upfront {
		kind, b = "clause-usage", bodyClauseUsage
	}
	p, err := p.normalize()
	if err != nil {
		return Prepared{}, err
	}
	if p.Space <= 0 || p.Step < 0 {
		return Prepared{}, fmt.Errorf("kerngen: %s kernel needs space > 0 and step >= 0", kind)
	}
	if initial := p.Inputs - p.Space*p.Step; initial < 2 {
		return Prepared{}, fmt.Errorf("kerngen: space %d x step %d leaves %d initial inputs (need >= 2)", p.Space, p.Step, initial)
	}
	p.ALUOps = max(p.aluOps(), p.Inputs-1)
	return Prepared{Params: p, body: b}, nil
}

// grouped is the one body of RegisterUsage and its Fig. 5 control: an
// initial group of inputs folded and padded to one ALU block, then `step`
// groups of `space` inputs, each folded in before its own block. The only switch
// is where a later group is sampled: just before its fold (Fig. 6), or
// up front with the initial group (upfront, the Fig. 5 control). Input i
// is always sampled into register i from resource i, so the two kernels
// differ only in the position of their fetches.
func grouped(k *il.Kernel, p Params, upfront bool) {
	initial := p.Inputs - p.Space*p.Step
	ops := p.ALUOps
	blockALU := ops / (p.Step + 1)

	fetch := fetchOp(p)
	last := initial
	if upfront {
		last = p.Inputs
	}
	sample(k, fetch, 0, last)
	c := &chainState{k: k, next: il.Reg(p.Inputs), prev: 0, prev2: 0}
	for i := 1; i < initial; i++ {
		c.fold(il.Reg(i))
	}
	for c.emitted < blockALU {
		c.extend()
	}
	for s := 0; s < p.Step; s++ {
		base := initial + s*p.Space
		if !upfront {
			sample(k, fetch, base, base+p.Space)
		}
		for i := base; i < base+p.Space; i++ {
			c.fold(il.Reg(i))
		}
		target := blockALU * (s + 2)
		if s == p.Step-1 {
			target = ops
		}
		for c.emitted < target {
			c.extend()
		}
	}
	emitStores(k, p, c.prev)
}

// sample fetches inputs [from, to), input i into register i from
// resource i.
func sample(k *il.Kernel, fetch il.Opcode, from, to int) {
	for i := from; i < to; i++ {
		k.Code = append(k.Code, il.Instr{Op: fetch, Dst: il.Reg(i), SrcA: il.NoReg, SrcB: il.NoReg, Res: i})
	}
}

func fetchOp(p Params) il.Opcode {
	if p.InputSpace == il.GlobalSpace {
		return il.OpGlobalLoad
	}
	return il.OpSample
}

func emitStores(k *il.Kernel, p Params, src il.Reg) {
	op := il.OpExport
	if p.OutSpace == il.GlobalSpace {
		op = il.OpGlobalStore
	}
	for o := 0; o < p.Outputs; o++ {
		k.Code = append(k.Code, il.Instr{Op: op, Dst: il.NoReg, SrcA: src, SrcB: il.NoReg, Res: o})
	}
}

// finish validates the kernel every Build returns; a generated kernel's
// seal records that result instead of validating again.
func finish(k *il.Kernel) (*il.Kernel, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("kerngen: generated invalid kernel: %w", err)
	}
	return k, nil
}
