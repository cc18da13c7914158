// Package device describes the AMD GPU generations targeted by the
// micro-benchmark suite: the RV670 (Radeon HD 3870), RV770 (HD 4870) and
// RV870 (HD 5870). The figures in Table I of the paper, plus the cache and
// memory geometry the paper discusses qualitatively, are captured here as
// static parameter tables. Everything downstream — the IL compiler's
// resource limits, the timing simulator's resource widths, the cache
// model's shape — is derived from a Spec.
package device

import (
	"fmt"
	"strings"
)

// Arch identifies one of the three StreamSDK-capable GPU generations.
type Arch int

const (
	// RV670 is the Radeon HD 3870 generation (no compute shader support).
	RV670 Arch = iota
	// RV770 is the Radeon HD 4870 generation.
	RV770
	// RV870 is the Radeon HD 5870 (Evergreen) generation.
	RV870
)

// String returns the ASIC name, e.g. "RV770".
func (a Arch) String() string {
	switch a {
	case RV670:
		return "RV670"
	case RV770:
		return "RV770"
	case RV870:
		return "RV870"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// CardName returns the consumer board the paper tested the ASIC on.
func (a Arch) CardName() string {
	switch a {
	case RV670:
		return "3870"
	case RV770:
		return "4870"
	case RV870:
		return "5870"
	}
	return "unknown"
}

// MemoryKind is the DRAM technology on the board.
type MemoryKind int

const (
	// GDDR3 class memory: the slow, narrow path of the HD 3870 board the
	// paper measured (the paper's text calls the 3870's memory DDR3-class
	// even though Table I lists DDR4; either way it is far slower than
	// the GDDR5 of the later boards, which is the behaviour we model).
	GDDR3 MemoryKind = iota
	// GDDR5 class memory used by the HD 4870 and HD 5870.
	GDDR5
)

// String returns the JEDEC-style name.
func (m MemoryKind) String() string {
	if m == GDDR3 {
		return "DDR4"
	}
	return "DDR5"
}

// Spec is the full parameter table for one GPU. The first block is Table I
// of the paper verbatim; the rest are microarchitectural constants the
// paper establishes in prose (thread organization, register file, clause
// limits) or that we need to give the caches and DRAM concrete shape.
type Spec struct {
	Arch Arch

	// Table I fields.
	ALUs         int        // total stream cores (5-wide VLIW lanes included)
	TextureUnits int        // total texture fetch units
	SIMDEngines  int        // SIMD engine count
	CoreClockMHz int        // engine clock
	MemClockMHz  int        // memory clock
	MemKind      MemoryKind // DRAM technology

	// Thread organization (Section II-A).
	WavefrontSize    int // threads per wavefront (64 on all three chips)
	ThreadProcessors int // thread processors per SIMD engine (16)
	TexUnitsPerSIMD  int // texture fetch units per SIMD engine (4)
	SlotsPerTP       int // odd/even wavefront slots per thread processor

	// Register file (Section II-B): 128-bit general purpose registers.
	RegistersPerSIMD int // 128-bit GPRs per SIMD engine (16K on RV770)
	MaxWavesPerSIMD  int // scheduler cap on resident wavefronts per SIMD

	// ISA clause limits (R700-family ISA reference).
	MaxFetchesPerTEXClause int // fetch instructions per TEX clause
	MaxSlotsPerALUClause   int // VLIW bundles per ALU clause
	ClauseTempsPerSlot     int // temporary clause registers per slot

	// Texture L1 cache, per SIMD engine. The paper: RV870 has half the
	// cache of the RV770 but double the line size.
	L1CacheBytes int
	L1LineBytes  int
	L1Ways       int

	// Shared texture L2 cache (aggregated across memory channels). L1
	// misses that hit here avoid DRAM entirely — they refill at L2
	// bandwidth with no row-activation cost.
	L2CacheBytes int
	L2Ways       int
	// L2BytesPerUnitCycle is one SIMD's share of L2 fill bandwidth in
	// bytes per core cycle.
	L2BytesPerCycle int

	// Memory system shape.
	MemChannels       int // DRAM channels
	MemBusBitsPerChan int // bus width per channel
	GlobalReadLatency int // uncached global read round trip, core cycles
	TexMissLatency    int // L1 miss service latency, core cycles
	TexHitLatency     int // L1 hit latency, core cycles

	// Delivery bandwidth from the texture path into a SIMD, in bytes per
	// texture unit per cycle. 4 bytes/unit/cycle makes one float fetch
	// across a 64-thread wavefront occupy 16 cycles on 4 units, which is
	// exactly the 4:1 ALU-op:fetch balance the SKA's 1.0 ratio encodes.
	TexBytesPerUnitCycle int

	// Export/ROP path for streaming stores (pixel shader color buffers):
	// cycles for one export instruction to drain a wavefront's worth of
	// one output, assuming burst-friendly consecutive addresses.
	StreamStoreCycles int

	// SupportsCompute reports compute shader mode availability; the RV670
	// supports global memory reads/writes but not compute shader mode.
	SupportsCompute bool
}

// Lookup returns the Spec for an architecture.
func Lookup(a Arch) Spec {
	switch a {
	case RV670:
		return rv670
	case RV770:
		return rv770
	case RV870:
		return rv870
	}
	panic(fmt.Sprintf("device: unknown architecture %d", int(a)))
}

// All returns the three StreamSDK generations in paper order.
func All() []Spec { return []Spec{rv670, rv770, rv870} }

// ParseArch resolves a device name as the tools accept it: the ASIC name
// in any case ("RV770", "rv770") or the board name ("4870"), with
// surrounding space trimmed.
func ParseArch(name string) (Arch, error) {
	name = strings.TrimSpace(name)
	var known []string
	for _, spec := range All() {
		if strings.EqualFold(name, spec.Arch.String()) || name == spec.Arch.CardName() {
			return spec.Arch, nil
		}
		known = append(known, spec.Arch.String())
	}
	return 0, fmt.Errorf("unknown architecture %q (have %s)", name, strings.Join(known, ", "))
}

// ParseArchs resolves a list of device names with ParseArch, in order,
// skipping blank entries; a list of blanks resolves to none.
func ParseArchs(names []string) ([]Arch, error) {
	var out []Arch
	for _, name := range names {
		if strings.TrimSpace(name) == "" {
			continue
		}
		a, err := ParseArch(name)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

var rv670 = Spec{
	Arch:         RV670,
	ALUs:         320,
	TextureUnits: 16,
	SIMDEngines:  4,
	CoreClockMHz: 750,
	MemClockMHz:  1000,
	MemKind:      GDDR3,

	WavefrontSize:    64,
	ThreadProcessors: 16,
	TexUnitsPerSIMD:  4,
	SlotsPerTP:       2,

	RegistersPerSIMD: 16384,
	MaxWavesPerSIMD:  24,

	MaxFetchesPerTEXClause: 8,
	MaxSlotsPerALUClause:   128,
	ClauseTempsPerSlot:     2,

	L1CacheBytes: 16 * 1024,
	L1LineBytes:  64,
	L1Ways:       8,

	L2CacheBytes:    128 * 1024,
	L2Ways:          16,
	L2BytesPerCycle: 32,

	MemChannels:       4,
	MemBusBitsPerChan: 64,
	GlobalReadLatency: 1100,
	TexMissLatency:    850,
	TexHitLatency:     180,

	TexBytesPerUnitCycle: 4,
	StreamStoreCycles:    40,

	SupportsCompute: false,
}

var rv770 = Spec{
	Arch:         RV770,
	ALUs:         800,
	TextureUnits: 40,
	SIMDEngines:  10,
	CoreClockMHz: 750,
	MemClockMHz:  900,
	MemKind:      GDDR5,

	WavefrontSize:    64,
	ThreadProcessors: 16,
	TexUnitsPerSIMD:  4,
	SlotsPerTP:       2,

	RegistersPerSIMD: 16384,
	MaxWavesPerSIMD:  32,

	MaxFetchesPerTEXClause: 8,
	MaxSlotsPerALUClause:   128,
	ClauseTempsPerSlot:     2,

	L1CacheBytes: 16 * 1024,
	L1LineBytes:  64,
	L1Ways:       8,

	L2CacheBytes:    256 * 1024,
	L2Ways:          16,
	L2BytesPerCycle: 32,

	MemChannels:       4,
	MemBusBitsPerChan: 64,
	GlobalReadLatency: 520,
	TexMissLatency:    750,
	TexHitLatency:     170,

	TexBytesPerUnitCycle: 4,
	StreamStoreCycles:    24,

	SupportsCompute: true,
}

var rv870 = Spec{
	Arch:         RV870,
	ALUs:         1600,
	TextureUnits: 80,
	SIMDEngines:  20,
	CoreClockMHz: 850,
	MemClockMHz:  1200,
	MemKind:      GDDR5,

	WavefrontSize:    64,
	ThreadProcessors: 16,
	TexUnitsPerSIMD:  4,
	SlotsPerTP:       2,

	RegistersPerSIMD: 16384,
	MaxWavesPerSIMD:  32,

	MaxFetchesPerTEXClause: 8,
	MaxSlotsPerALUClause:   128,
	ClauseTempsPerSlot:     2,

	// Half the cache of the RV770, double the line size (Section IV-A).
	L1CacheBytes: 8 * 1024,
	L1LineBytes:  128,
	L1Ways:       4,

	L2CacheBytes:    512 * 1024,
	L2Ways:          16,
	L2BytesPerCycle: 32,

	MemChannels:       8,
	MemBusBitsPerChan: 32,
	GlobalReadLatency: 480,
	TexMissLatency:    650,
	TexHitLatency:     160,

	TexBytesPerUnitCycle: 4,
	StreamStoreCycles:    20,

	SupportsCompute: true,
}

// RegistersPerThread returns the 128-bit GPRs available to each thread of
// a single resident wavefront (256 on all three chips: 16K regs / 64
// threads), the figure the paper uses for the 256/5 = 51 wavefront example.
func (s Spec) RegistersPerThread() int { return s.RegistersPerSIMD / s.WavefrontSize }

// WavefrontsForGPRs returns how many wavefronts can be co-resident on one
// SIMD engine when each thread of each wavefront holds gprs live registers.
// The result is clamped to [1, MaxWavesPerSIMD]; a kernel always gets at
// least one wavefront even if it oversubscribes the file.
func (s Spec) WavefrontsForGPRs(gprs int) int {
	if gprs <= 0 {
		return s.MaxWavesPerSIMD
	}
	w := s.RegistersPerThread() / gprs
	if w < 1 {
		w = 1
	}
	if w > s.MaxWavesPerSIMD {
		w = s.MaxWavesPerSIMD
	}
	return w
}

// CyclesPerALUBundle returns the SIMD-cycles one VLIW bundle occupies for a
// full wavefront: 64 threads over 16 thread processors = 4 cycles.
func (s Spec) CyclesPerALUBundle() int { return s.WavefrontSize / s.ThreadProcessors }

// FetchIssueCycles returns the texture-pipe occupancy, in cycles, of one
// fetch instruction for a full wavefront moving elemBytes per thread:
// wavefrontSize*elemBytes spread over the SIMD's texture units at
// TexBytesPerUnitCycle each. For 4-byte floats this is 16 cycles, giving
// the canonical 4 ALU ops : 1 fetch balance; float4 costs 4x as much,
// which is what pushes the float4 ALU:Fetch crossover to ~4x the float one.
func (s Spec) FetchIssueCycles(elemBytes int) int {
	bytes := s.WavefrontSize * elemBytes
	perCycle := s.TexUnitsPerSIMD * s.TexBytesPerUnitCycle
	c := (bytes + perCycle - 1) / perCycle
	if c < 1 {
		c = 1
	}
	return c
}

// MemBandwidthBytesPerCoreCycle returns the aggregate DRAM bandwidth
// expressed in bytes per core clock cycle, the unit the timing simulator
// works in. GDDR5 transfers 4 bits per clock per pin versus GDDR3's 2.
func (s Spec) MemBandwidthBytesPerCoreCycle() float64 {
	transfersPerClock := 2.0
	if s.MemKind == GDDR5 {
		transfersPerClock = 4.0
	}
	busBytes := float64(s.MemChannels*s.MemBusBitsPerChan) / 8.0
	bytesPerMemClock := busBytes * transfersPerClock
	return bytesPerMemClock * float64(s.MemClockMHz) / float64(s.CoreClockMHz)
}

// Validate checks internal consistency of a Spec. The built-in chips are
// validated by the package tests; Validate is exported so synthetic
// "future generation" chips built by users of the suite can be checked.
func (s Spec) Validate() error {
	switch {
	case s.SIMDEngines <= 0:
		return fmt.Errorf("device %s: SIMDEngines must be positive", s.Arch)
	case s.ALUs%s.SIMDEngines != 0:
		return fmt.Errorf("device %s: ALUs (%d) not divisible by SIMD engines (%d)", s.Arch, s.ALUs, s.SIMDEngines)
	case s.TextureUnits != s.TexUnitsPerSIMD*s.SIMDEngines:
		return fmt.Errorf("device %s: texture units %d != %d per SIMD x %d engines", s.Arch, s.TextureUnits, s.TexUnitsPerSIMD, s.SIMDEngines)
	case s.WavefrontSize%s.ThreadProcessors != 0:
		return fmt.Errorf("device %s: wavefront size %d not divisible by thread processors %d", s.Arch, s.WavefrontSize, s.ThreadProcessors)
	case s.RegistersPerSIMD%s.WavefrontSize != 0:
		return fmt.Errorf("device %s: register file %d not divisible by wavefront size %d", s.Arch, s.RegistersPerSIMD, s.WavefrontSize)
	case s.L1LineBytes <= 0 || s.L1Ways <= 0 || s.L1CacheBytes%(s.L1LineBytes*s.L1Ways) != 0:
		return fmt.Errorf("device %s: L1 geometry %dB/%dB lines/%d ways does not tile", s.Arch, s.L1CacheBytes, s.L1LineBytes, s.L1Ways)
	case s.L2Ways <= 0 || s.L2CacheBytes%(s.L1LineBytes*s.L2Ways) != 0:
		return fmt.Errorf("device %s: L2 geometry %dB/%d ways does not tile with %dB lines", s.Arch, s.L2CacheBytes, s.L2Ways, s.L1LineBytes)
	case s.L2BytesPerCycle <= 0:
		return fmt.Errorf("device %s: L2 bandwidth must be positive", s.Arch)
	case s.MaxFetchesPerTEXClause <= 0 || s.MaxSlotsPerALUClause <= 0:
		return fmt.Errorf("device %s: clause limits must be positive", s.Arch)
	case s.CoreClockMHz <= 0 || s.MemClockMHz <= 0:
		return fmt.Errorf("device %s: clocks must be positive", s.Arch)
	}
	return nil
}
