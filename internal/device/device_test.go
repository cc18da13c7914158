package device

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableIValues(t *testing.T) {
	// Table I of the paper, verbatim.
	cases := []struct {
		arch  Arch
		alus  int
		tex   int
		simds int
		core  int
		mem   int
		kind  string
	}{
		{RV670, 320, 16, 4, 750, 1000, "DDR4"},
		{RV770, 800, 40, 10, 750, 900, "DDR5"},
		{RV870, 1600, 80, 20, 850, 1200, "DDR5"},
	}
	for _, c := range cases {
		s := Lookup(c.arch)
		if s.ALUs != c.alus {
			t.Errorf("%s ALUs = %d, want %d", c.arch, s.ALUs, c.alus)
		}
		if s.TextureUnits != c.tex {
			t.Errorf("%s texture units = %d, want %d", c.arch, s.TextureUnits, c.tex)
		}
		if s.SIMDEngines != c.simds {
			t.Errorf("%s SIMD engines = %d, want %d", c.arch, s.SIMDEngines, c.simds)
		}
		if s.CoreClockMHz != c.core {
			t.Errorf("%s core clock = %d, want %d", c.arch, s.CoreClockMHz, c.core)
		}
		if s.MemClockMHz != c.mem {
			t.Errorf("%s mem clock = %d, want %d", c.arch, s.MemClockMHz, c.mem)
		}
		if s.MemKind.String() != c.kind {
			t.Errorf("%s mem kind = %s, want %s", c.arch, s.MemKind, c.kind)
		}
	}
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Arch, err)
		}
	}
}

func TestAllOrderAndNames(t *testing.T) {
	specs := All()
	if len(specs) != 3 {
		t.Fatalf("All() returned %d specs, want 3", len(specs))
	}
	wantNames := []string{"RV670", "RV770", "RV870"}
	wantCards := []string{"3870", "4870", "5870"}
	for i, s := range specs {
		if s.Arch.String() != wantNames[i] {
			t.Errorf("spec %d arch = %s, want %s", i, s.Arch, wantNames[i])
		}
		if s.Arch.CardName() != wantCards[i] {
			t.Errorf("spec %d card = %s, want %s", i, s.Arch.CardName(), wantCards[i])
		}
	}
}

func TestUnknownArchString(t *testing.T) {
	if got := Arch(99).String(); got != "Arch(99)" {
		t.Errorf("Arch(99).String() = %q", got)
	}
	if got := Arch(99).CardName(); got != "unknown" {
		t.Errorf("Arch(99).CardName() = %q", got)
	}
}

func TestLookupUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup of unknown arch did not panic")
		}
	}()
	Lookup(Arch(42))
}

func TestRegistersPerThread(t *testing.T) {
	// Paper: 16k regs / SIMD, 64 threads / wavefront => 256 GPRs per
	// thread, and a 5-register kernel schedules 256/5 = 51 wavefronts
	// (clamped to the hardware's resident-wave cap here).
	s := Lookup(RV770)
	if got := s.RegistersPerThread(); got != 256 {
		t.Fatalf("RegistersPerThread = %d, want 256", got)
	}
	if got := s.RegistersPerSIMD; got != 16384 {
		t.Fatalf("RegistersPerSIMD = %d, want 16384", got)
	}
}

func TestWavefrontsForGPRs(t *testing.T) {
	s := Lookup(RV770)
	cases := []struct{ gprs, want int }{
		{0, s.MaxWavesPerSIMD}, // no pressure: cap
		{1, s.MaxWavesPerSIMD}, // 256 raw, clamped
		{5, s.MaxWavesPerSIMD}, // paper's 51, clamped to cap
		{8, 32},                // 256/8 = 32
		{16, 16},               // 256/16
		{64, 4},                // register-usage benchmark baseline
		{257, 1},               // oversubscribed: still runs one wave
		{10000, 1},             // pathological
	}
	for _, c := range cases {
		if got := s.WavefrontsForGPRs(c.gprs); got != c.want {
			t.Errorf("WavefrontsForGPRs(%d) = %d, want %d", c.gprs, got, c.want)
		}
	}
}

func TestWavefrontsForGPRsBounds(t *testing.T) {
	s := Lookup(RV870)
	f := func(gprs uint8) bool {
		w := s.WavefrontsForGPRs(int(gprs))
		return w >= 1 && w <= s.MaxWavesPerSIMD
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWavefrontsForGPRsMonotone(t *testing.T) {
	s := Lookup(RV770)
	prev := s.WavefrontsForGPRs(1)
	for g := 2; g <= 300; g++ {
		cur := s.WavefrontsForGPRs(g)
		if cur > prev {
			t.Fatalf("wavefronts increased from %d to %d when GPRs grew to %d", prev, cur, g)
		}
		prev = cur
	}
}

func TestCyclesPerALUBundle(t *testing.T) {
	for _, s := range All() {
		if got := s.CyclesPerALUBundle(); got != 4 {
			t.Errorf("%s: CyclesPerALUBundle = %d, want 4 (64 threads / 16 TPs)", s.Arch, got)
		}
	}
}

func TestFetchIssueCycles(t *testing.T) {
	s := Lookup(RV770)
	// float: 64 threads x 4B over 4 units x 4B/cycle = 16 cycles. This is
	// the 4:1 balance behind the SKA's "1.0" ALU:Fetch ratio.
	if got := s.FetchIssueCycles(4); got != 16 {
		t.Fatalf("FetchIssueCycles(float) = %d, want 16", got)
	}
	// float4 moves 4x the bytes -> 4x the occupancy.
	if got := s.FetchIssueCycles(16); got != 64 {
		t.Fatalf("FetchIssueCycles(float4) = %d, want 64", got)
	}
	if got := s.FetchIssueCycles(0); got != 1 {
		t.Fatalf("FetchIssueCycles(0) = %d, want clamp to 1", got)
	}
}

func TestMemBandwidthOrdering(t *testing.T) {
	// The GDDR5 boards must have much more bandwidth per core cycle than
	// the GDDR3-class 3870; the 5870 the most in absolute terms.
	b670 := Lookup(RV670).MemBandwidthBytesPerCoreCycle()
	b770 := Lookup(RV770).MemBandwidthBytesPerCoreCycle()
	b870 := Lookup(RV870).MemBandwidthBytesPerCoreCycle()
	if !(b670 < b770) {
		t.Errorf("bandwidth ordering: RV670 (%.1f) should be < RV770 (%.1f)", b670, b770)
	}
	if b870 <= 0 || b770 <= 0 {
		t.Fatal("bandwidth must be positive")
	}
}

func TestL1Geometry(t *testing.T) {
	// RV870 has half the RV770's cache with double the line size.
	r770, r870 := Lookup(RV770), Lookup(RV870)
	if r870.L1CacheBytes*2 != r770.L1CacheBytes {
		t.Errorf("RV870 L1 (%d) should be half of RV770's (%d)", r870.L1CacheBytes, r770.L1CacheBytes)
	}
	if r870.L1LineBytes != 2*r770.L1LineBytes {
		t.Errorf("RV870 line (%d) should be double RV770's (%d)", r870.L1LineBytes, r770.L1LineBytes)
	}
	for _, s := range All() {
		sets := s.L1CacheBytes / (s.L1LineBytes * s.L1Ways)
		if sets*s.L1LineBytes*s.L1Ways != s.L1CacheBytes {
			t.Errorf("%s: sets x line x ways != cache bytes", s.Arch)
		}
	}
}

func TestComputeSupport(t *testing.T) {
	if Lookup(RV670).SupportsCompute {
		t.Error("RV670 must not support compute shader mode")
	}
	if !Lookup(RV770).SupportsCompute || !Lookup(RV870).SupportsCompute {
		t.Error("RV770 and RV870 must support compute shader mode")
	}
}

func TestValidateCatchesBrokenSpecs(t *testing.T) {
	base := Lookup(RV770)
	mutate := []func(*Spec){
		func(s *Spec) { s.SIMDEngines = 0 },
		func(s *Spec) { s.ALUs = 801 },
		func(s *Spec) { s.TextureUnits = 39 },
		func(s *Spec) { s.WavefrontSize = 63 },
		func(s *Spec) { s.RegistersPerSIMD = 16383 },
		func(s *Spec) { s.L1Ways = 3 },
		func(s *Spec) { s.MaxFetchesPerTEXClause = 0 },
		func(s *Spec) { s.CoreClockMHz = 0 },
	}
	for i, m := range mutate {
		s := base
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted a broken spec", i)
		}
	}
}

func TestParseArch(t *testing.T) {
	for _, c := range []struct {
		name string
		want Arch
	}{
		{"RV670", RV670}, {"rv770", RV770}, {"Rv870", RV870},
		{"3870", RV670}, {"4870", RV770}, {" 5870\t", RV870}, {" rv770 ", RV770},
	} {
		if got, err := ParseArch(c.name); err != nil || got != c.want {
			t.Errorf("ParseArch(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, name := range []string{"", "  ", "G80", "rv7700", "HD4870", "4870x2", "RV 770", "Arch(1)"} {
		_, err := ParseArch(name)
		if err == nil {
			t.Errorf("ParseArch(%q) accepted an unknown name", name)
			continue
		}
		want := `unknown architecture "` + strings.TrimSpace(name) + `" (have RV670, RV770, RV870)`
		if err.Error() != want {
			t.Errorf("ParseArch(%q) error = %q, want %q", name, err, want)
		}
	}
}
