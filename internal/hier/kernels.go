// Package hier dissects the memory hierarchy of the simulated devices
// with pointer-chase-style latency ladders and working-set sweeps, then
// inverts the measured curves back into the cache model that produced
// them: L1/L2 capacity, line size and associativity, and the miss-minus-
// hit latency delta — recovered from timings alone and diffed against
// the device table's ground truth (`amdmb infer`).
//
// Every measurement uses one kernel shape, the chase kernel:
//
//	t0 = sample(surface 0)              // seed fetch
//	b_i = b_{i-1} + t0  (x ballastOps)  // register ballast
//	repeat Rounds times:
//	    for each surface s: t = sample(s); acc = acc + t
//	acc = acc + b_i for every i         // pins the ballast into GPRs
//	export acc
//
// The ballast values are defined early and folded into the export chain
// at the very end, so each one is live across every clause in between
// and must hold a general-purpose register. With ballastOps >= 129 of
// them the compiler's register high-water exceeds half the 256-register
// file and occupancy pins to exactly one resident wavefront — no
// latency hiding, so the makespan divided by the fetch count is the
// per-fetch effective latency the inference reads.
//
// Surface placement rides the packed replay arena (cache.TraceConfig
// .FetchRes): surface k sits at byte offset k*SizeBytes, and SizeBytes
// is under the probe's control via the surface geometry (width W at
// height 8 makes SizeBytes = W*8*elem exactly). A probe therefore
// chooses its stride between touched footprint quanta by choosing its
// surface width — the trick that lets associativity probes drop K+1
// quanta onto the same cache sets without violating the IL rule that
// every declared input must be sampled.
package hier

import (
	"fmt"

	"amdgpubench/internal/il"
)

const (
	// probeHeight is every probe's domain height. With width a multiple
	// of 8 the 8x8 tiled layout pads nothing, so a surface's stored
	// footprint is exactly Width x 8 x elem bytes — the arena spacing
	// the packed replay derives from the layout.
	probeHeight = 8
	// ballastOps sizes the register ballast. Anything >= 129 forces the
	// per-thread GPR count past half the 256-register file on all
	// supported specs, pinning occupancy to one resident wavefront.
	ballastOps = 132
)

// Probe describes one memory-hierarchy measurement kernel: a chase over
// Surfaces input surfaces of SurfaceBytes each, Rounds times, with
// fetches issued Batch to a TEX clause. Batch 1 serializes every fetch
// behind a dependent ALU fold — the latency regime; Batch 8 packs a
// full TEX clause so the clause latency amortizes over eight fetches —
// the bandwidth regime.
type Probe struct {
	Type         il.DataType // il.Float or il.Float4
	SurfaceBytes int         // per-surface arena spacing; the wave touches the first 64*elem of it
	Surfaces     int         // distinct input surfaces (K)
	Rounds       int         // chase rounds over all surfaces (R)
	Batch        int         // fetches per TEX clause: 1 = latency, up to 8 = bandwidth
}

// ElemBytes is the fetch element size: 4 for float, 16 for float4.
func (p Probe) ElemBytes() int {
	if p.Type == il.Float4 {
		return 16
	}
	return 4
}

// QuantumBytes is one wavefront's dense footprint per surface — the
// bytes the probe actually touches out of every SurfaceBytes of arena:
// 64 lanes x elem = 256 B for float, 1 KiB for float4.
func (p Probe) QuantumBytes() int { return 64 * p.ElemBytes() }

// Width is the launch domain width that makes the surface layout span
// exactly SurfaceBytes.
func (p Probe) Width() int { return p.SurfaceBytes / (probeHeight * p.ElemBytes()) }

// Height is the launch domain height (always 8: one row of 8x8 tiles).
func (p Probe) Height() int { return probeHeight }

// Slots is the kernel's texture fetch count per wavefront: the seed
// fetch plus Rounds x Surfaces chase fetches.
func (p Probe) Slots() int { return 1 + p.Rounds*p.Surfaces }

// FootprintBytes is the total arena span the probe walks.
func (p Probe) FootprintBytes() int { return p.Surfaces * p.SurfaceBytes }

func (p Probe) validate() error {
	if p.Type != il.Float && p.Type != il.Float4 {
		return fmt.Errorf("hier: probe type must be float or float4")
	}
	q := p.QuantumBytes()
	if p.SurfaceBytes < q || p.SurfaceBytes%q != 0 {
		return fmt.Errorf("hier: surface bytes %d must be a positive multiple of the %d-byte quantum", p.SurfaceBytes, q)
	}
	if p.Surfaces < 1 {
		return fmt.Errorf("hier: need at least one surface, got %d", p.Surfaces)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("hier: need at least one round, got %d", p.Rounds)
	}
	if p.Batch < 1 || p.Batch > 8 {
		return fmt.Errorf("hier: batch %d outside 1..8 (one TEX clause)", p.Batch)
	}
	return nil
}

func (p Probe) name() string {
	dt := "f"
	if p.Type == il.Float4 {
		dt = "f4"
	}
	return fmt.Sprintf("hier_%s_k%d_b%d_r%d_g%d", dt, p.Surfaces, p.SurfaceBytes, p.Rounds, p.Batch)
}

// Kernel builds the probe's chase kernel (see the package comment for
// the shape). The generated IL is validated before it is returned.
func (p Probe) Kernel() (*il.Kernel, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	k := &il.Kernel{
		Name: p.name(), Mode: il.Pixel, Type: p.Type,
		NumInputs: p.Surfaces, NumOutputs: 1,
		InputSpace: il.TextureSpace, OutSpace: il.TextureSpace,
		// Seed fetch, ballast, a fetch and a fold per chase slot, the
		// ballast folds and the export.
		Code: make([]il.Instr, 0, 1+2*ballastOps+2*p.Rounds*p.Surfaces+1),
	}
	// Seed fetch: the ballast chains off its result, and it gives the
	// fetch schedule a repeated surface so the packed arena always
	// engages (slot 1 re-reads surface 0, so the schedule is never the
	// identity the legacy far-apart replay assumes).
	seed := il.Reg(0)
	k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: seed, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0})
	next := il.Reg(1)

	ballast := make([]il.Reg, ballastOps)
	prev := seed
	for i := range ballast {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: next, SrcA: prev, SrcB: seed, Res: -1})
		ballast[i] = next
		prev = next
		next++
	}

	acc := prev
	for r := 0; r < p.Rounds; r++ {
		for s := 0; s < p.Surfaces; s += p.Batch {
			n := p.Batch
			if s+n > p.Surfaces {
				n = p.Surfaces - s
			}
			base := next
			for j := 0; j < n; j++ {
				k.Code = append(k.Code, il.Instr{Op: il.OpSample, Dst: next, SrcA: il.NoReg, SrcB: il.NoReg, Res: s + j})
				next++
			}
			for j := 0; j < n; j++ {
				k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: next, SrcA: acc, SrcB: base + il.Reg(j), Res: -1})
				acc = next
				next++
			}
		}
	}

	// Fold every ballast value into the export chain. Each b_i now has a
	// use far past its defining clause, so the compiler must keep all of
	// them in GPRs — the whole point of the ballast.
	for _, b := range ballast {
		k.Code = append(k.Code, il.Instr{Op: il.OpAdd, Dst: next, SrcA: acc, SrcB: b, Res: -1})
		acc = next
		next++
	}
	k.Code = append(k.Code, il.Instr{Op: il.OpExport, Dst: il.NoReg, SrcA: acc, SrcB: il.NoReg, Res: 0})

	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("hier: generated invalid kernel: %w", err)
	}
	return k, nil
}
