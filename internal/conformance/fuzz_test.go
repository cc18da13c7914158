package conformance

// Native fuzz targets. Each wraps the package's oracles so `go test
// -fuzz` explores beyond the fixed-seed property tests; during a plain
// `go test` run the targets execute their seed corpora (f.Add seeds plus
// the checked-in files under testdata/fuzz/<Name>/) as regression tests.
//
// Reproducing a failure: the fuzzer writes the crashing entry to
// testdata/fuzz/<Name>/<hash>; `go test -run=<Name>/<hash>` replays it.
// Failure reports embed the shrunk kernel's assembly, so the minimal
// reproducer is in the log before any manual work starts.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// FuzzParseAssemble feeds arbitrary text to the IL parser. Whatever
// parses into a valid kernel must survive the Assemble->Parse round trip
// with an identical structural hash and a fixpoint text form; everything
// else must be rejected with an error, never a panic.
func FuzzParseAssemble(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(il.Assemble(RandomKernel(rand.New(rand.NewSource(seed)))))
	}
	f.Add("il_ps_2_0 ; kernel empty\ndcl_output o0\nend\n")
	f.Add("garbage\n")
	f.Fuzz(func(t *testing.T, src string) {
		k, err := il.Parse(src)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		if k.Validate() != nil {
			return // parseable but not a well-formed kernel
		}
		if err := CheckRoundTrip(k); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCompileDifferential addresses a generated kernel by (seed, spec
// selector) and runs the full oracle stack; a divergence is shrunk
// before reporting.
func FuzzCompileDifferential(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, seed%3)
	}
	f.Fuzz(func(t *testing.T, seed, sel uint64) {
		k := RandomKernel(rand.New(rand.NewSource(int64(seed))))
		spec := SpecFor(k, uint8(sel))
		if err := CheckKernel(k, spec); err != nil {
			min := Shrink(k, func(c *il.Kernel) bool { return CheckKernel(c, spec) != nil })
			t.Fatalf("seed %d on %s: %v\nshrunk reproducer (%d instrs):\n%s",
				seed, spec.Arch, err, len(min.Code), il.Assemble(min))
		}
	})
}

// replayConfigFromBits decodes a packed uint64 into a bounded replay
// geometry, so the fuzzer explores domain shapes, input counts,
// residency, walk orders, layouts and fetch schedules without ever
// leaving the valid range. Bits 0-7 are width-1, 8-15 height-1, 16-21
// inputs-1, 22 linear layout, 23 a packed FetchRes schedule, 24-28
// waves-1, 29-30 the element size and 48-63 the first wave; the order is
// geom>>32 and the device geom>>40, each modulo its list. Bits 22, 23
// and 29 were added later and are clear in the older seeds, which
// therefore decode as before.
//
// Bit 30 alone selects float4 (16 B) over float (4 B); with bit 29 the
// pair selects 12 B over 1 B instead. A 12-byte fetch straddles lines
// (the cursor's per-lane fallback), and a 1-byte packed arena on the
// RV870's 128 B lines is not line-aligned when it pads to an odd number
// of 8x8 tiles (the fallback again).
func replayConfigFromBits(geom uint64) cache.TraceConfig {
	specs := device.All()
	orders := []raster.Order{raster.PixelOrder(), raster.Naive64x1(), raster.Block4x16()}
	elems := []int{4, 1, 16, 12}
	cfg := cache.TraceConfig{
		Spec:          specs[(geom>>40)%uint64(len(specs))],
		Order:         orders[(geom>>32)%uint64(len(orders))],
		W:             int(1 + geom&0xFF),
		H:             int(1 + (geom>>8)&0xFF),
		ElemBytes:     elems[(geom>>29)&3],
		NumInputs:     int(1 + (geom>>16)&0x3F),
		LinearLayout:  geom&(1<<22) != 0,
		ResidentWaves: int(1 + (geom>>24)&0x1F),
		FirstWave:     int((geom >> 48) & 0xFFFF),
	}
	if geom&(1<<23) != 0 {
		// One slot per input over half as many surfaces, so the
		// schedule revisits them; the slot order is an LCG stream
		// seeded by the geometry.
		surfs := uint64(1 + cfg.NumInputs/2)
		cfg.FetchRes = make([]int, cfg.NumInputs)
		x := geom
		for s := range cfg.FetchRes {
			x = x*6364136223846793005 + 1442695040888963407
			cfg.FetchRes[s] = int((x >> 33) % surfs)
		}
	}
	return cfg
}

// FuzzReplay checks the cache replay's conservation laws over fuzzed
// geometries, and its statistics against the lane-by-lane oracle.
func FuzzReplay(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x0001_0002_0304_3F7F))
	f.Add(uint64(0xFFFF_0102_4011_1010))
	f.Fuzz(func(t *testing.T, geom uint64) {
		cfg := replayConfigFromBits(geom)
		if err := CheckReplayConservation(cfg); err != nil {
			t.Fatal(err)
		}
		if err := CheckReplayMatchesLanes(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the checked-in seed corpora under testdata/fuzz")

// corpusEntry renders one corpus file in the "go test fuzz v1" format.
func corpusEntry(vals ...any) string {
	s := "go test fuzz v1\n"
	for _, v := range vals {
		switch v := v.(type) {
		case string:
			s += fmt.Sprintf("string(%s)\n", strconv.Quote(v))
		case uint64:
			s += fmt.Sprintf("uint64(%d)\n", v)
		default:
			panic(fmt.Sprintf("unsupported corpus value %T", v))
		}
	}
	return s
}

// seedCorpora is the checked-in corpus set: interesting kernels for the
// round-trip target (both modes, both spaces, consts, a parse-error
// probe), a seed spread for the differential target, and boundary
// geometries for the replay target.
func seedCorpora() map[string][]string {
	asm := func(seed int64) string {
		return corpusEntry(il.Assemble(RandomKernel(rand.New(rand.NewSource(seed)))))
	}
	m := map[string][]string{"FuzzParseAssemble": {
		corpusEntry("il_ps_2_0 ; kernel tiny\ndcl_type float\ndcl_resource_id(0)_type(2d)_fmt(float)\ndcl_output o0\nsample_resource(0) r0, vWinCoord0\nexport o0, r0\nend\n"),
		corpusEntry("il_cs_2_0 ; kernel nohdr\nend\n"),
		// Fuzz-found crashers, pinned: operand-less instructions and a
		// bare dcl_cb once indexed past the field slice.
		corpusEntry("il_ps_2_0\nsample_resource(0)\nend\n"),
		corpusEntry("il_ps_2_0\ngload_buffer(0)\nend\n"),
		corpusEntry("il_ps_2_0\ngstore_buffer(0)\nend\n"),
		corpusEntry("il_ps_2_0\ndcl_cb\nend\n"),
	}}
	for seed := int64(5); seed <= 12; seed++ {
		m["FuzzParseAssemble"] = append(m["FuzzParseAssemble"], asm(seed))
	}
	for seed := uint64(9); seed <= 24; seed++ {
		m["FuzzCompileDifferential"] = append(m["FuzzCompileDifferential"], corpusEntry(seed, seed%7))
	}
	m["FuzzReplay"] = []string{
		corpusEntry(uint64(0x3F3F)),                // 64x64 single input
		corpusEntry(uint64(0x0000_0001_073F_2063)), // clause-boundary inputs, padding domain
		corpusEntry(uint64(0x0010_0002_1F01_00FF)), // naive walk, high residency, 256-wide strip
		corpusEntry(uint64(0x2222_0000_4008_0840)), // float4, rotated window
		corpusEntry(uint64(0x0000_0002_0B48_2763)), // linear layout, 4x16 block
		corpusEntry(uint64(0x0000_0100_0788_3F3F)), // packed FetchRes arena, line-aligned
		corpusEntry(uint64(0x0000_0201_258B_1727)), // packed 1-byte arena, 960 B: not a multiple of 128 B lines
		corpusEntry(uint64(0x0003_0100_6304_1020)), // 12-byte elements straddle lines
		// Fuzz-found: 12-byte fetches straddling lines once broke the
		// conservation check's one-line-per-lane bound.
		corpusEntry(uint64(0x0003_0100_6304_0FE6)),
	}
	return m
}

// TestSeedCorpus keeps testdata/fuzz in lockstep with seedCorpora: with
// -update-corpus it rewrites the files; without, it verifies they exist
// and match, so corpus drift fails loudly instead of silently fuzzing
// from a stale base.
func TestSeedCorpus(t *testing.T) {
	for target, entries := range seedCorpora() {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
			for _, f := range old {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, body := range entries {
			path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			if *updateCorpus {
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run `go test -run TestSeedCorpus -update-corpus ./internal/conformance` to regenerate)", path, err)
			}
			if string(got) != body {
				t.Errorf("%s is stale; regenerate with -update-corpus", path)
			}
		}
	}
}
