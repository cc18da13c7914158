package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
)

func mustNew(t *testing.T, total, line, ways int) *Cache {
	t.Helper()
	c, err := New(total, line, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesGeometry(t *testing.T) {
	if _, err := New(0, 64, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(1000, 64, 8); err == nil {
		t.Error("non-tiling capacity accepted")
	}
	c := mustNew(t, 16*1024, 64, 8)
	if c.sets != 32 || c.ways != 8 || c.lineBytes != 64 {
		t.Errorf("geometry = %d sets / %d ways / %dB lines", c.sets, c.ways, c.lineBytes)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("re-access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next-line cold access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: capacity 2 lines.
	c := mustNew(t, 128, 64, 2)
	c.Access(0)   // A
	c.Access(64)  // B
	c.Access(0)   // touch A: B becomes LRU
	c.Access(128) // C evicts B
	if !c.Access(0) {
		t.Error("A evicted although it was MRU")
	}
	if c.Access(64) {
		t.Error("B survived although it was LRU")
	}
}

func TestWorkingSetFitsAllHitsAfterWarmup(t *testing.T) {
	c := mustNew(t, 8*1024, 64, 4)
	var h, m int
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 8*1024; a += 64 {
			if c.Access(a) {
				h++
			} else {
				m++
			}
		}
	}
	if m != 128 { // only the cold pass misses
		t.Errorf("misses = %d, want 128 (cold only)", m)
	}
	if h != 256 {
		t.Errorf("hits = %d, want 256", h)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// A working set of 2x capacity streamed cyclically through an LRU
	// cache never hits.
	c := mustNew(t, 1024, 64, 2)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 2048; a += 64 {
			if c.Access(a) {
				t.Fatalf("pass %d: address %d hit under cyclic thrash", pass, a)
			}
		}
	}
}

func TestAccessRangeStraddle(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	h, m := c.AccessRange(60, 16) // bytes 60..75 straddle lines 0 and 1
	if h != 0 || m != 2 {
		t.Errorf("straddle = %d hits %d misses, want 0/2", h, m)
	}
	h, m = c.AccessRange(0, 4)
	if h != 1 || m != 0 {
		t.Errorf("re-touch = %d/%d, want 1/0", h, m)
	}
	if h, m = c.AccessRange(0, 0); h != 0 || m != 0 {
		t.Error("zero-size range touched lines")
	}
}

// referenceCache is an oracle: per-set LRU implemented with explicit
// recency lists. The property test checks the production cache agrees on
// every access over random traces.
type referenceCache struct {
	lineBytes, sets, ways int
	recency               [][]uint64 // per set, most recent first
}

func newReference(total, line, ways int) *referenceCache {
	return &referenceCache{lineBytes: line, sets: total / (line * ways), ways: ways,
		recency: make([][]uint64, total/(line*ways))}
}

func (r *referenceCache) access(addr uint64) bool {
	la := addr / uint64(r.lineBytes)
	set := int(la % uint64(r.sets))
	list := r.recency[set]
	for i, tag := range list {
		if tag == la {
			copy(list[1:i+1], list[:i])
			list[0] = la
			return true
		}
	}
	list = append([]uint64{la}, list...)
	if len(list) > r.ways {
		list = list[:r.ways]
	}
	r.recency[set] = list
	return false
}

func TestAgainstReferenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		line := 32 << uint(rng.Intn(3)) // 32/64/128
		ways := 1 << uint(rng.Intn(4))  // 1..8
		sets := 1 << uint(rng.Intn(5))  // 1..16
		total := line * ways * sets
		c := mustNew(t, total, line, ways)
		ref := newReference(total, line, ways)
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(total * 4))
			got := c.Access(addr)
			want := ref.access(addr)
			if got != want {
				t.Fatalf("trial %d access %d addr %d: cache=%v oracle=%v (line=%d ways=%d sets=%d)",
					trial, i, addr, got, want, line, ways, sets)
			}
		}
	}
}

func TestHitRateBounds(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	lines := make(map[uint64]bool)
	var hits, misses, accesses int
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			lines[uint64(a)/64] = true
			if c.Access(uint64(a)) {
				hits++
			} else {
				misses++
			}
		}
		accesses += len(addrs)
		// Every access is one verdict and every line's first touch
		// misses, so the hit rate stays within [0, 1 - lines/accesses].
		return hits+misses == accesses && misses >= len(lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- trace replay -------------------------------------------------------

func replayCfg(order raster.Order, elem, inputs, waves int) TraceConfig {
	return TraceConfig{
		Spec:          device.Lookup(device.RV770),
		Order:         order,
		W:             1024,
		H:             1024,
		ElemBytes:     elem,
		NumInputs:     inputs,
		ResidentWaves: waves,
	}
}

func TestReplayConservation(t *testing.T) {
	st, err := Replay(replayCfg(raster.PixelOrder(), 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d)", st.Hits, st.Misses, st.Accesses)
	}
	if st.FetchExecs != 8*16 {
		t.Fatalf("fetch executions = %d, want 128", st.FetchExecs)
	}
	if st.MissBytes != st.Misses*64 {
		t.Fatal("miss bytes inconsistent with line size")
	}
}

func TestReplayPixelBeats64x1(t *testing.T) {
	// The central cache observation of the paper: the rasterizer's tiled
	// walk matches the tiled texture layout; the naive 64x1 compute walk
	// does not and misses more.
	pix, err := Replay(replayCfg(raster.PixelOrder(), 4, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Replay(replayCfg(raster.Naive64x1(), 4, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !(pix.HitRate() > lin.HitRate()) {
		t.Fatalf("pixel hit rate %.3f not above 64x1's %.3f", pix.HitRate(), lin.HitRate())
	}
	if !(pix.MissBytesPerFetch() < lin.MissBytesPerFetch()) {
		t.Fatalf("pixel fill traffic %.1f not below 64x1's %.1f", pix.MissBytesPerFetch(), lin.MissBytesPerFetch())
	}
}

func TestReplay4x16Beats64x1(t *testing.T) {
	// Fig. 8: the 4x16 block size restores 2D locality in compute mode.
	blk, err := Replay(replayCfg(raster.Block4x16(), 4, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Replay(replayCfg(raster.Naive64x1(), 4, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !(blk.HitRate() > lin.HitRate()) {
		t.Fatalf("4x16 hit rate %.3f not above 64x1's %.3f", blk.HitRate(), lin.HitRate())
	}
}

func TestReplayMoreWavesMoreContention(t *testing.T) {
	// Fig. 16's levelling-off mechanism: more resident wavefronts share
	// the L1, so per-access hit rate cannot improve and fill traffic per
	// fetch should not shrink.
	few, err := Replay(replayCfg(raster.Naive64x1(), 4, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Replay(replayCfg(raster.Naive64x1(), 4, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	if many.HitRate() > few.HitRate()+0.02 {
		t.Fatalf("hit rate improved with contention: %.3f (32 waves) vs %.3f (4 waves)", many.HitRate(), few.HitRate())
	}
}

func TestReplayFloat4MoreTraffic(t *testing.T) {
	f1, err := Replay(replayCfg(raster.PixelOrder(), 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Replay(replayCfg(raster.PixelOrder(), 16, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !(f4.MissBytesPerFetch() > 2*f1.MissBytesPerFetch()) {
		t.Fatalf("float4 fill traffic %.1f not well above float's %.1f", f4.MissBytesPerFetch(), f1.MissBytesPerFetch())
	}
}

func TestReplayRV870SmallerCacheWorse(t *testing.T) {
	// The RV870's doubled line size makes the naive 64x1 float walk fetch
	// twice the fill traffic of the RV770 (a quarter of each 128B line is
	// used instead of half of each 64B line), and its hit rate must never
	// exceed the tile-friendly walks'. This is the paper's "only part of
	// the cache is used by a one-dimensional block size" effect, amplified
	// on the RV870 (Section IV-A).
	cfg := replayCfg(raster.Naive64x1(), 4, 16, 24)
	st770, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = device.Lookup(device.RV870)
	st870, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(st870.MissBytesPerFetch() > 1.8*st770.MissBytesPerFetch()) {
		t.Fatalf("RV870 64x1 fill/fetch %.0fB not about double RV770's %.0fB",
			st870.MissBytesPerFetch(), st770.MissBytesPerFetch())
	}
	cfg.Order = raster.Block4x16()
	blk870, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st870.HitRate() > blk870.HitRate() {
		t.Fatalf("RV870 64x1 hit rate %.3f above its 4x16 rate %.3f", st870.HitRate(), blk870.HitRate())
	}
}

func TestReplayRowActivations(t *testing.T) {
	// The naive 64x1 walk scatters its fills across eight tiles per
	// wavefront; the pixel tile walk and the 4x16 block fill contiguously
	// and must open far fewer DRAM rows per fetch.
	pix, err := Replay(replayCfg(raster.PixelOrder(), 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Replay(replayCfg(raster.Naive64x1(), 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := Replay(replayCfg(raster.Block4x16(), 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !(pix.ActivationsPerFetch() < lin.ActivationsPerFetch()) {
		t.Errorf("pixel activations/fetch %.2f not below 64x1's %.2f",
			pix.ActivationsPerFetch(), lin.ActivationsPerFetch())
	}
	if !(blk.ActivationsPerFetch() < lin.ActivationsPerFetch()) {
		t.Errorf("4x16 activations/fetch %.2f not below 64x1's %.2f",
			blk.ActivationsPerFetch(), lin.ActivationsPerFetch())
	}
}

func TestReplayL2Accounting(t *testing.T) {
	st, err := Replay(replayCfg(raster.Naive64x1(), 4, 16, 24))
	if err != nil {
		t.Fatal(err)
	}
	if st.L2Hits+st.L2Misses != st.Misses {
		t.Fatalf("L2 hits (%d) + misses (%d) != L1 misses (%d)", st.L2Hits, st.L2Misses, st.Misses)
	}
	if st.DRAMBytes != st.L2Misses*64 {
		t.Fatalf("DRAM bytes %d inconsistent with L2 misses %d", st.DRAMBytes, st.L2Misses)
	}
	if st.DRAMBytes > st.MissBytes {
		t.Fatal("DRAM traffic exceeds L1 fill traffic")
	}
}

func TestReplayL2AbsorbsConflictMisses(t *testing.T) {
	// The 64x1 float walk with a window spanning two domain rows
	// re-touches row-0 lines from row-1 wavefronts; the tiled layout's
	// set-index stride makes many of those L1 conflict misses, which the
	// much larger L2 must absorb: DRAM traffic well below L1 fill traffic.
	st, err := Replay(replayCfg(raster.Naive64x1(), 4, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if st.L2Hits == 0 {
		t.Fatal("no L2 hits on a reuse-heavy trace")
	}
	if !(float64(st.DRAMBytes) < 0.9*float64(st.MissBytes)) {
		t.Fatalf("L2 absorbed nothing: DRAM %d vs fill %d", st.DRAMBytes, st.MissBytes)
	}
}

func TestReplayLinearLayoutWorseForPixel(t *testing.T) {
	// The ablation switch: row-major surfaces break the match between
	// the rasterizer's tile walk and the cache lines.
	cfg := replayCfg(raster.PixelOrder(), 4, 8, 16)
	tiled, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LinearLayout = true
	linear, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(linear.ActivationsPerFetch() > tiled.ActivationsPerFetch()) {
		t.Fatalf("linear layout did not scatter DRAM rows: %.2f vs %.2f",
			linear.ActivationsPerFetch(), tiled.ActivationsPerFetch())
	}
}
