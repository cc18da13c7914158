// Package mem provides the shared-resource primitives of the timing
// simulator: serial pipes with FIFO grant and busy accounting (used for
// the ALU pipeline, texture pipeline, export path and memory controller of
// a SIMD engine), and the DRAM cost model that turns byte counts and row
// activations into cycles. Burst writes to consecutive addresses — the
// behaviour the paper's streaming-store micro-benchmark leans on — stream
// at full bandwidth, while scattered traffic pays per-row activation
// penalties.
package mem

import (
	"fmt"

	"amdgpubench/internal/device"
)

// Pipe is a serially-granted resource. Requests are granted in arrival
// order; each request occupies the pipe for its occupancy and the pipe
// accumulates busy cycles for bottleneck accounting. The zero value is an
// idle pipe.
type Pipe struct {
	nextFree uint64
	busy     uint64
}

// Acquire grants the pipe to a request arriving at now for occ cycles,
// returning the grant time and the time the pipe frees.
func (p *Pipe) Acquire(now, occ uint64) (grant, done uint64) {
	grant = now
	if p.nextFree > grant {
		grant = p.nextFree
	}
	done = grant + occ
	p.nextFree = done
	p.busy += occ
	return grant, done
}

// Busy returns accumulated busy cycles.
func (p *Pipe) Busy() uint64 { return p.busy }

// DRAM is the cycle-cost model of one chip's memory system as seen by a
// single SIMD engine: the chip's bandwidth divided evenly among engines
// (every engine runs the same kernel in these workloads), plus latency and
// row-activation constants.
type DRAM struct {
	// BytesPerCycle is this SIMD's share of DRAM bandwidth, in bytes per
	// core clock cycle.
	BytesPerCycle float64
	// RowPenalty is the cycle cost of opening a DRAM row (activation +
	// column-access overhead folded together).
	RowPenalty uint64
	// ReadLatency is the uncached global-read round trip in core cycles.
	ReadLatency uint64
	// ReadOverhead is the extra per-fetch-instruction occupancy of the
	// uncached read path; large on the RV670, whose global memory the
	// paper found dramatically slower than its texture path (Fig. 12).
	ReadOverhead uint64
}

// NewDRAM derives the per-SIMD DRAM model from a device spec.
func NewDRAM(spec device.Spec) (*DRAM, error) {
	if spec.SIMDEngines <= 0 {
		return nil, fmt.Errorf("mem: spec %s has no SIMD engines", spec.Arch)
	}
	bw := spec.MemBandwidthBytesPerCoreCycle() / float64(spec.SIMDEngines)
	if bw <= 0 {
		return nil, fmt.Errorf("mem: spec %s has non-positive bandwidth", spec.Arch)
	}
	d := &DRAM{
		BytesPerCycle: bw,
		RowPenalty:    24,
		ReadLatency:   uint64(spec.GlobalReadLatency),
	}
	if spec.MemKind == device.GDDR3 {
		// The RV670's uncached path is far slower than its texture path:
		// narrow transactions with heavy per-access overhead.
		d.ReadOverhead = 96
	} else {
		d.ReadOverhead = 8
	}
	return d, nil
}

// TransferCycles converts a transfer of n bytes touching the given number
// of newly-opened DRAM rows into occupancy cycles.
func (d *DRAM) TransferCycles(bytes int, activations float64) uint64 {
	if bytes <= 0 && activations <= 0 {
		return 0
	}
	c := float64(bytes)/d.BytesPerCycle + activations*float64(d.RowPenalty)
	if c < 1 {
		c = 1
	}
	return uint64(c)
}

// BurstWriteCycles is the occupancy of writing n consecutive bytes: pure
// bandwidth, one activation per touched row. The AMD GPUs allow burst
// writing when output addresses are consecutive (Section II-B), which is
// how every wavefront's linear stores behave.
func (d *DRAM) BurstWriteCycles(bytes int) uint64 {
	rows := float64(bytes) / 2048.0
	return d.TransferCycles(bytes, rows)
}

// ScatteredWriteCycles is the occupancy of writing n bytes spread over
// `chunks` discontiguous locations, each paying a row activation.
func (d *DRAM) ScatteredWriteCycles(bytes, chunks int) uint64 {
	return d.TransferCycles(bytes, float64(chunks))
}

// GlobalReadCycles is the occupancy of one uncached fetch instruction
// moving n consecutive bytes for a wavefront.
func (d *DRAM) GlobalReadCycles(bytes int) uint64 {
	rows := float64(bytes) / 2048.0
	return d.TransferCycles(bytes, rows) + d.ReadOverhead
}
