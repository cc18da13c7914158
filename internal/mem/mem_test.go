package mem

import (
	"testing"
	"testing/quick"

	"amdgpubench/internal/device"
)

func TestPipeFIFO(t *testing.T) {
	var p Pipe
	g1, d1 := p.Acquire(0, 10)
	if g1 != 0 || d1 != 10 {
		t.Fatalf("first grant [%d,%d], want [0,10]", g1, d1)
	}
	// Second request arrives at 5, must wait until 10.
	g2, d2 := p.Acquire(5, 4)
	if g2 != 10 || d2 != 14 {
		t.Fatalf("queued grant [%d,%d], want [10,14]", g2, d2)
	}
	// Request after idle gap starts immediately.
	g3, d3 := p.Acquire(100, 1)
	if g3 != 100 || d3 != 101 {
		t.Fatalf("idle grant [%d,%d], want [100,101]", g3, d3)
	}
	if p.Busy() != 15 {
		t.Fatalf("busy = %d, want 15", p.Busy())
	}
}

func TestPipeNeverOverlaps(t *testing.T) {
	var p Pipe
	var lastDone uint64
	f := func(arrivals []uint16) bool {
		for _, a := range arrivals {
			g, d := p.Acquire(uint64(a), uint64(a%17)+1)
			if g < lastDone { // grants must not overlap previous service
				return false
			}
			lastDone = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewDRAMPerSIMDShare(t *testing.T) {
	s := device.Lookup(device.RV770)
	d, err := NewDRAM(s)
	if err != nil {
		t.Fatal(err)
	}
	want := s.MemBandwidthBytesPerCoreCycle() / float64(s.SIMDEngines)
	if d.BytesPerCycle != want {
		t.Fatalf("per-SIMD bandwidth = %v, want %v", d.BytesPerCycle, want)
	}
}

func TestDRAMOverheadByGeneration(t *testing.T) {
	d670, err := NewDRAM(device.Lookup(device.RV670))
	if err != nil {
		t.Fatal(err)
	}
	d770, err := NewDRAM(device.Lookup(device.RV770))
	if err != nil {
		t.Fatal(err)
	}
	if d670.ReadOverhead <= d770.ReadOverhead {
		t.Fatal("RV670 uncached read overhead should dwarf the GDDR5 parts'")
	}
	if d670.ReadLatency <= d770.ReadLatency {
		t.Fatal("RV670 global read latency should exceed RV770's")
	}
}

func TestTransferCyclesScalesWithBytes(t *testing.T) {
	d := &DRAM{BytesPerCycle: 16, RowPenalty: 24}
	if got := d.TransferCycles(1600, 0); got != 100 {
		t.Fatalf("1600B = %d cycles, want 100", got)
	}
	if got := d.TransferCycles(0, 0); got != 0 {
		t.Fatalf("empty transfer = %d cycles, want 0", got)
	}
	if got := d.TransferCycles(1, 0); got != 1 {
		t.Fatalf("tiny transfer = %d cycles, want clamp to 1", got)
	}
}

func TestBurstVsScatteredWrites(t *testing.T) {
	d := &DRAM{BytesPerCycle: 16, RowPenalty: 24}
	burst := d.BurstWriteCycles(4096)
	scattered := d.ScatteredWriteCycles(4096, 64)
	if !(burst < scattered) {
		t.Fatalf("burst (%d) not cheaper than scattered (%d)", burst, scattered)
	}
	// Burst cost is dominated by bandwidth: 4096/16 = 256 plus 2 rows.
	if burst != 256+2*24 {
		t.Fatalf("burst = %d cycles, want 304", burst)
	}
}

func TestGlobalReadIncludesOverhead(t *testing.T) {
	d := &DRAM{BytesPerCycle: 16, RowPenalty: 24, ReadOverhead: 96}
	got := d.GlobalReadCycles(256)
	want := uint64(256/16) + uint64(float64(24)*(256.0/2048.0)) + 96
	if got != want {
		t.Fatalf("global read = %d cycles, want %d", got, want)
	}
}

func TestWriteMonotoneInBytes(t *testing.T) {
	d := &DRAM{BytesPerCycle: 9.5, RowPenalty: 24}
	prev := uint64(0)
	for b := 64; b <= 1<<16; b *= 2 {
		c := d.BurstWriteCycles(b)
		if c < prev {
			t.Fatalf("burst cycles decreased at %dB", b)
		}
		prev = c
	}
}

func TestNewDRAMRejectsBrokenSpec(t *testing.T) {
	s := device.Lookup(device.RV770)
	s.SIMDEngines = 0
	if _, err := NewDRAM(s); err == nil {
		t.Fatal("zero-SIMD spec accepted")
	}
}
