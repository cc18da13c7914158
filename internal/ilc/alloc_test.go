package ilc_test

import (
	"math/rand"
	"runtime"
	"testing"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/conformance"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
)

// compileAllocsCeiling is the measured allocation count of one warm
// CompileWith of a chase probe: the kernel's three Validate arrays, then
// the returned program, its clause array and its op, bundle, fetch and
// export slabs. The passes run on a scratch from ilc's free list, so a
// compile allocates only what it returns, and the count is the same for
// every kernel length.
const compileAllocsCeiling = 9

// sealedAllocsCeiling is the same count for CompileSealed, which reads
// the seal's memoized Validate result and so skips Validate's arrays.
const sealedAllocsCeiling = compileAllocsCeiling - 3

// TestCompileAllocs bounds CompileWith's allocations: a float and a
// float4 chase probe compile with the same count at 1 and at 16 rounds
// (282 and 522 instructions), so the count does not grow with kernel
// length, and that count stays at or below the ceiling. A 16-round
// compile's bytes stay at or below the probe's byte ceiling, set about
// 2% over the measured 20.7 KB (float) and 39.1 KB (float4): nearly all
// of it is the returned program's slabs. CompileSealed makes three
// fewer allocations, since it does not validate again. Every bound
// holds with and without the race detector.
func TestCompileAllocs(t *testing.T) {
	spec := device.Lookup(device.RV770)
	for _, tc := range []struct {
		p            hier.Probe
		bytesCeiling uint64
	}{
		{hier.Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 8, Batch: 1}, 21_200},
		{hier.Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 8, Batch: 1}, 40_000},
	} {
		p := tc.p
		var counts [2]float64
		var bytes uint64
		for i, rounds := range []int{1, 16} {
			p.Rounds = rounds
			k, err := p.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			compile := func() {
				if _, err := ilc.CompileWith(k, spec, ilc.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			counts[i] = testing.AllocsPerRun(20, compile)
			bytes = bytesPerRun(20, compile)
			t.Logf("%v rounds=%d (%d instructions): %.0f allocs, %d bytes", p.Type, rounds, len(k.Code), counts[i], bytes)
		}
		if counts[0] != counts[1] {
			t.Errorf("%v: %.0f allocs at 1 round, %.0f at 16: the count grows with kernel length", p.Type, counts[0], counts[1])
		}
		if counts[1] > compileAllocsCeiling {
			t.Errorf("%v: %.0f allocs per compile, want <= %d", p.Type, counts[1], compileAllocsCeiling)
		}
		if bytes > tc.bytesCeiling {
			t.Errorf("%v: %d bytes per 16-round compile, want <= %d", p.Type, bytes, tc.bytesCeiling)
		}
		k, err := p.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sk := il.Seal(k)
		sealed := testing.AllocsPerRun(20, func() {
			if _, err := ilc.CompileSealed(sk, ilc.TargetOf(spec), ilc.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if sealed > sealedAllocsCeiling {
			t.Errorf("%v: %.0f allocs per sealed compile, want <= %d", p.Type, sealed, sealedAllocsCeiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// chaseSlotBytesCeiling bounds what one chase slot of a compiled
// Batch=1 probe costs to keep: a TEX clause of one fetch and an ALU
// clause of one one-op bundle are 12+8+12+24+14 = 70 bytes in isa's
// compact layout (TestLayoutSizes), where clauses that held their own
// slices and word-wide fields cost 312.
const chaseSlotBytesCeiling = 100

// TestChaseProgramBytes bounds the bytes a compiled probe keeps alive
// per chase slot, on the dearest program dissection compiles: the
// 130-surface thrashed L1 reference of a 16 KiB L1 (4160 slots). A
// warm CompileSealed allocates only the program it returns, so its
// bytes per run are the program's retained bytes.
func TestChaseProgramBytes(t *testing.T) {
	p := hier.Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 130, Rounds: 32, Batch: 1}
	k, err := p.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sk := il.Seal(k)
	bytes := bytesPerRun(5, func() {
		if _, err := ilc.CompileSealed(sk, ilc.TargetOf(device.Lookup(device.RV770)), ilc.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	slots := uint64(p.Surfaces * p.Rounds)
	t.Logf("%d bytes retained, %.1f per chase slot", bytes, float64(bytes)/float64(slots))
	if bytes > chaseSlotBytesCeiling*slots {
		t.Errorf("%d bytes retained for %d chase slots, want <= %d per slot", bytes, slots, chaseSlotBytesCeiling)
	}
}

// TestProgramSlicesCapped checks that every slab-backed slice of a
// compiled program is capped at its length, so an append on one clause
// or bundle of a shared, cached program copies instead of overwriting
// its neighbour's elements.
func TestProgramSlicesCapped(t *testing.T) {
	p := hier.Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 8, Rounds: 2, Batch: 4}
	k, err := p.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilc.Compile(k, device.Lookup(device.RV770))
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range prog.Clauses {
		var n, capacity int
		switch c.Kind {
		case isa.ClauseTEX:
			fs := prog.FetchesOf(c)
			n, capacity = len(fs), cap(fs)
		case isa.ClauseALU:
			bs := prog.BundlesOf(c)
			n, capacity = len(bs), cap(bs)
		default:
			es := prog.ExportsOf(c)
			n, capacity = len(es), cap(es)
		}
		if capacity != n {
			t.Errorf("clause %d: %v payload of %d with capacity %d", ci, c.Kind, n, capacity)
		}
	}
	for bi, b := range prog.Bundles {
		if cap(b.Ops) != len(b.Ops) {
			t.Errorf("bundle %d: %d ops with capacity %d", bi, len(b.Ops), cap(b.Ops))
		}
	}
}

// ablations is every combination of ilc.Options.
var ablations = []ilc.Options{
	{},
	{NoPVForwarding: true},
	{NoClauseTemps: true},
	{NoPVForwarding: true, NoClauseTemps: true},
}

// checkGPRs asserts the bucket scan numbers k's registers exactly as
// the reference scan does, under every ablation.
func checkGPRs(t *testing.T, k *il.Kernel, spec device.Spec) {
	t.Helper()
	for _, opts := range ablations {
		if err := ilc.CheckGPRsMatchReference(k, spec, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGPRAllocationMatchesReference guards the register hand-out order,
// not just the goldens' subset of it: the bucket scan and the plain
// reference scan must place every value in the same register and report
// the same count on every registry figure's kernels, on generated
// conformance kernels and on the RV770 dissection's probe schedule.
func TestGPRAllocationMatchesReference(t *testing.T) {
	t.Run("registry", func(t *testing.T) {
		specs, err := campaign.Specs(core.NewSuite(), campaign.FigureNames())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			for _, p := range s.Figure.Points {
				k, err := p.K.Kernel()
				if err != nil {
					t.Fatal(err)
				}
				checkGPRs(t, k, device.Lookup(p.Card.Arch))
			}
		}
	})
	t.Run("conformance", func(t *testing.T) {
		for seed := int64(0); seed < 500; seed++ {
			k := conformance.RandomKernel(rand.New(rand.NewSource(seed)))
			checkGPRs(t, k, conformance.SpecFor(k, uint8(seed)))
		}
	})
	t.Run("hier", func(t *testing.T) {
		spec := device.Lookup(device.RV770)
		s := core.NewSuite()
		s.Iterations = 100
		measure := hier.SuiteMeasurer(s, spec)
		types := map[il.DataType]int{}
		record := func(ps []hier.Probe) ([]float64, error) {
			for _, p := range ps {
				k, err := p.Kernel()
				if err != nil {
					return nil, err
				}
				checkGPRs(t, k, spec)
				types[p.Type]++
			}
			return measure(ps)
		}
		if _, err := hier.Infer(record, hier.Config{}); err != nil {
			t.Fatal(err)
		}
		if types[il.Float] == 0 || types[il.Float4] == 0 {
			t.Fatalf("probe schedule covers %v, want both float and float4", types)
		}
	})
}

// FuzzGPRAllocationMatchesReference runs the register oracle on
// generated kernels addressed by (seed, spec selector). Seed 1 is the
// first conformance kernel whose numbering goes wrong when a definition
// does not drain its own end bucket again; no registry kernel catches
// that.
func FuzzGPRAllocationMatchesReference(f *testing.F) {
	for seed := uint64(0); seed <= 4; seed++ {
		f.Add(seed, seed)
	}
	f.Fuzz(func(t *testing.T, seed, sel uint64) {
		k := conformance.RandomKernel(rand.New(rand.NewSource(int64(seed))))
		checkGPRs(t, k, conformance.SpecFor(k, uint8(sel)))
	})
}
