package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// persistConfig builds a small real launch through a pipeline's own
// Generate stage.
func persistConfig(t *testing.T, p *Pipeline) testLaunch {
	t.Helper()
	k, err := p.Generate(GenALUFetch, kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return testLaunch{k: k, cfg: sim.Config{
		Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
		W: 64, H: 64, Iterations: 1,
	}}
}

func persistCount(t *testing.T, p *Pipeline, name string) int64 {
	t.Helper()
	return p.Metrics().Snapshot().Get("pipeline.persist." + name)
}

func TestPersistTierWriteThroughAndReload(t *testing.T) {
	dir := t.TempDir()

	// Cold pipeline: the first simulate computes and writes through.
	p1 := New(Options{PersistDir: dir})
	cfg1 := persistConfig(t, p1)
	res1, err := p1.runLaunch(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p1, "writes"); got != 1 {
		t.Fatalf("persist.writes = %d, want 1", got)
	}
	if got := persistCount(t, p1, "misses"); got != 1 {
		t.Fatalf("persist.misses = %d, want 1", got)
	}
	// A second simulate of the same config hits in MEMORY: the disk tier
	// is below the LRU, not in front of it.
	if _, err := p1.runLaunch(cfg1); err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p1, "hits"); got != 0 {
		t.Fatalf("persist.hits = %d after a memory hit, want 0", got)
	}

	// A fresh pipeline over the same dir — the daemon restart — serves
	// the result from disk, bit-identical, without simulating.
	p2 := New(Options{PersistDir: dir})
	cfg2 := persistConfig(t, p2)
	res2, err := p2.runLaunch(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatalf("disk-served result differs from computed:\n%+v\nvs\n%+v", res2, res1)
	}
	if got := persistCount(t, p2, "hits"); got != 1 {
		t.Fatalf("persist.hits = %d on restart, want 1", got)
	}
	if got := persistCount(t, p2, "writes"); got != 0 {
		t.Fatalf("persist.writes = %d on a tier hit, want 0 (no write-back of what is already on disk)", got)
	}
	if ns := p2.simulate.computeNS.Load() + p2.simBypassNS.Load(); ns != 0 {
		t.Fatalf("restart simulated for %dns; the tier should have served it", ns)
	}
}

// segments lists the segment files a persistent tier at dir holds.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segmentDir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestPersistTierCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Options{PersistDir: dir})
	cfg := persistConfig(t, p1)
	res1, err := p1.runLaunch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the one persisted record in place: flip a bit of its
	// result, which its checksum covers.
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("persisted %d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != recordBytes {
		t.Fatalf("segment holds %d bytes, want one %d-byte record", len(data), recordBytes)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The restart recomputes (the corrupt entry must not wedge or lie),
	// counts the error, and heals the entry by writing through again.
	p2 := New(Options{PersistDir: dir})
	res2, err := p2.runLaunch(persistConfig(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatal("recomputed result differs")
	}
	if got := persistCount(t, p2, "errors"); got != 1 {
		t.Fatalf("persist.errors = %d, want 1", got)
	}
	if got := persistCount(t, p2, "writes"); got != 1 {
		t.Fatalf("persist.writes = %d, want 1 (corrupt entry healed)", got)
	}

	p3 := New(Options{PersistDir: dir})
	if _, err := p3.runLaunch(persistConfig(t, p3)); err != nil {
		t.Fatal(err)
	}
	if got := persistCount(t, p3, "hits"); got != 1 {
		t.Fatalf("persist.hits = %d after heal, want 1", got)
	}
}

// syntheticKey is the i-th of a set of distinct simulate keys.
func syntheticKey(i int) simulateKey {
	return simulateKey{
		kernel: [32]byte{byte(i), byte(i >> 8)},
		spec:   device.Lookup(device.RV770), order: raster.PixelOrder(),
		w: 64, h: 64, iterations: 1,
	}
}

// syntheticResult is a result distinct for each i.
func syntheticResult(i int) sim.Result {
	return sim.Result{Cycles: uint64(1000 + i), Seconds: float64(i) + 1.0/3, GPRs: i, HitRate: 0.5}
}

// fillTier writes n synthetic records through one tier, so they share
// one segment, and returns that segment.
func fillTier(t *testing.T, dir string, n int) string {
	t.Helper()
	tier := newPersistTier(dir, obs.NewRegistry())
	for i := 0; i < n; i++ {
		tier.store(syntheticKey(i), syntheticResult(i))
	}
	if got := tier.writes.Load(); got != int64(n) {
		t.Fatalf("persist.writes = %d, want %d", got, n)
	}
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments after one tier's writes, want 1", len(segs))
	}
	return segs[0]
}

// wantServed opens a fresh tier at dir and checks which of the first n
// synthetic records it serves, bit-identical, and how many errors the
// open counted.
func wantServed(t *testing.T, dir string, n int, missing map[int]bool, errs int64) {
	t.Helper()
	tier := newPersistTier(dir, obs.NewRegistry())
	for i := 0; i < n; i++ {
		res, ok := tier.load(syntheticKey(i))
		if ok == missing[i] {
			t.Errorf("record %d served = %v, want %v", i, ok, !missing[i])
		}
		if ok && res != syntheticResult(i) {
			t.Errorf("record %d served %+v, want %+v", i, res, syntheticResult(i))
		}
	}
	if got := tier.errs.Load(); got != errs {
		t.Errorf("persist.errors = %d at open, want %d", got, errs)
	}
}

func TestPersistTornTailIsMiss(t *testing.T) {
	// A kill mid-write leaves part of the last record: that record
	// misses, the ones before it are served, and the scan calls the
	// damage a torn tail, not a torn record.
	dir := t.TempDir()
	seg := fillTier(t, dir, 3)
	if err := os.Truncate(seg, 3*recordBytes-5); err != nil {
		t.Fatal(err)
	}
	wantServed(t, dir, 3, map[int]bool{2: true}, 1)
	if got, want := ScanPersistDir(dir), (PersistScan{Records: 2, TornTails: 1}); got != want {
		t.Errorf("scan = %+v, want %+v", got, want)
	}
}

func TestPersistBitFlipMissesOnlyThatRecord(t *testing.T) {
	dir := t.TempDir()
	seg := fillTier(t, dir, 3)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[recordBytes+recordBytes/2] ^= 0x10 // inside the middle record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantServed(t, dir, 3, map[int]bool{1: true}, 1)
	if got, want := ScanPersistDir(dir), (PersistScan{Records: 2, Torn: 1}); got != want {
		t.Errorf("scan = %+v, want %+v", got, want)
	}
}

func TestPersistFailedWriteAbandonsSegment(t *testing.T) {
	// A write that fails part-way leaves a partial record at the end of
	// its segment. The tier must not append behind it: the next store
	// opens a new segment, so the damage stays a tail.
	dir := t.TempDir()
	tier := newPersistTier(dir, obs.NewRegistry())
	tier.store(syntheticKey(0), syntheticResult(0))
	first := segments(t, dir)
	if len(first) != 1 {
		t.Fatalf("%d segments after the first store, want 1", len(first))
	}
	// Stand in for the failing write: a partial record lands, then the
	// descriptor fails.
	f, err := os.OpenFile(first[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, recordBytes/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tier.seg.Close()

	tier.store(syntheticKey(1), syntheticResult(1))
	if got := tier.errs.Load(); got != 1 {
		t.Fatalf("persist.errors = %d after the failed write, want 1", got)
	}
	tier.store(syntheticKey(2), syntheticResult(2))
	if got := tier.writes.Load(); got != 2 {
		t.Fatalf("persist.writes = %d, want 2", got)
	}
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("%d segments, want 2: the store after a failed write must open a new one", n)
	}
	wantServed(t, dir, 3, map[int]bool{1: true}, 1)
	if got, want := ScanPersistDir(dir), (PersistScan{Records: 2, TornTails: 1}); got != want {
		t.Errorf("scan = %+v, want %+v", got, want)
	}
}

func TestPersistSegmentsArePerWriter(t *testing.T) {
	// Two tiers open on one dir, as two shard processes are: each
	// appends to its own segment, neither sees the other's records
	// live, and a later open sees both.
	dir := t.TempDir()
	a := newPersistTier(dir, obs.NewRegistry())
	b := newPersistTier(dir, obs.NewRegistry())
	a.store(syntheticKey(0), syntheticResult(0))
	b.store(syntheticKey(1), syntheticResult(1))
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("%d segments for two writers, want 2", n)
	}
	if _, ok := a.load(syntheticKey(1)); ok {
		t.Error("a tier served a record another writer appended after it opened")
	}
	wantServed(t, dir, 2, nil, 0)
}

func TestPersistTierConcurrentStoresAndLoads(t *testing.T) {
	// Sweep workers store and look up through one tier at once: every
	// record lands whole in the one segment, and each is served.
	dir := t.TempDir()
	tier := newPersistTier(dir, obs.NewRegistry())
	const workers, each = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				tier.store(syntheticKey(i), syntheticResult(i))
				if res, ok := tier.load(syntheticKey(i)); !ok || res != syntheticResult(i) {
					t.Errorf("record %d not served right after its store", i)
				}
				tier.load(syntheticKey((i + each) % (workers * each))) // another worker's, stored or not
			}
		}(w)
	}
	wg.Wait()
	if got, want := ScanPersistDir(dir), (PersistScan{Records: workers * each}); got != want {
		t.Errorf("scan = %+v, want %+v", got, want)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Errorf("one tier wrote %d segments, want 1", n)
	}
	wantServed(t, dir, workers*each, nil, 0)
}

func TestResultEncodingRoundTrips(t *testing.T) {
	// Every field gets a distinct non-zero value, set by reflection so a
	// field added to sim.Result without an encoding fails here.
	var res sim.Result
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int:
				f.SetInt(-int64(n) << 33)
			case reflect.Uint64:
				f.SetUint(uint64(n)<<40 | uint64(n))
			case reflect.Float64:
				f.SetFloat(float64(n) + 1.0/3)
			default:
				t.Fatalf("sim.Result field %s has kind %s; teach this test and encodeResult about it", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&res).Elem())
	enc := encodeResult(nil, res)
	if len(enc) != resultBytes {
		t.Fatalf("encoded %d bytes, want %d", len(enc), resultBytes)
	}
	if got := decodeResult(enc); got != res {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, res)
	}
}

func TestPersistTierDisabledWithCache(t *testing.T) {
	dir := t.TempDir()
	p := New(Options{PersistDir: dir, Disabled: true})
	if _, err := p.runLaunch(persistConfig(t, p)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "simulate")); !os.IsNotExist(err) {
		t.Fatalf("-no-cache pipeline wrote persistent entries (stat err %v)", err)
	}
}

func TestPersistHitSkipsTraceAndReplay(t *testing.T) {
	// A disk hit serves the launch before compile, trace or replay run:
	// the key is built from the source, so a restart over a filled cache
	// dir pays for none of them.
	dir := t.TempDir()
	p1 := New(Options{PersistDir: dir})
	if _, err := p1.runLaunch(persistConfig(t, p1)); err != nil {
		t.Fatal(err)
	}
	if got := p1.Metrics().Snapshot().Get("pipeline.replay.misses"); got != 1 {
		t.Fatalf("cold launch replay.misses = %d, want 1 (a config with no replay makes this test vacuous)", got)
	}

	p2 := New(Options{PersistDir: dir})
	if _, err := p2.runLaunch(persistConfig(t, p2)); err != nil {
		t.Fatal(err)
	}
	snap := p2.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"pipeline.persist.hits":        1,
		"pipeline.compile.hits":        0,
		"pipeline.compile.misses":      0,
		"pipeline.trace.derivations":   0,
		"pipeline.replay.misses":       0,
		"pipeline.replay.hits":         0,
		"pipeline.simulate.bypassed":   0,
		"pipeline.simulate.compute_ns": 0,
	} {
		if got := snap.Get(name); got != want {
			t.Errorf("%s = %d on a disk hit, want %d", name, got, want)
		}
	}
}

// pinnedModelFingerprint is the model's fingerprint. A change to a
// generator, the compiler, cache model or simulator that moves a canary changes it
// and re-keys every persisted entry; re-pin it here, deliberately, with
// the value the failing test prints.
const pinnedModelFingerprint = "1203ebe0c4e349aa0e7159f078382d21253d051fd74b8156fedc281a177f1a30"

func TestModelFingerprintPinned(t *testing.T) {
	if got := modelFingerprint(); got != pinnedModelFingerprint {
		t.Fatalf("model fingerprint = %s, pinned %s: the timing model changed and every persisted result will miss once; re-pin if that is intended", got, pinnedModelFingerprint)
	}
}

func TestPersistKeyCoversEveryField(t *testing.T) {
	// Changing any one input of the key must change the key. The spec,
	// order and ablation fields are walked by reflection, so a field
	// added to one of them without an encoding in persistKeyFor fails
	// here.
	base := syntheticKey(0)
	base.watchdog = 7
	const model = "model"
	seen := map[persistKey]string{persistKeyFor(model, base): "nothing"}
	check := func(name, m string, k simulateKey) {
		key := persistKeyFor(m, k)
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s gives the key of changing %s", name, prev)
		}
		seen[key] = name
	}
	for _, part := range []struct {
		name  string
		field func(*simulateKey) reflect.Value
	}{
		{"spec", func(k *simulateKey) reflect.Value { return reflect.ValueOf(&k.spec).Elem() }},
		{"order", func(k *simulateKey) reflect.Value { return reflect.ValueOf(&k.order).Elem() }},
		{"ablate", func(k *simulateKey) reflect.Value { return reflect.ValueOf(&k.ablate).Elem() }},
	} {
		for i := 0; i < part.field(&base).NumField(); i++ {
			k := base
			f := part.field(&k).Field(i)
			name := part.name + "." + part.field(&k).Type().Field(i).Name
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s has kind %s; teach this test and persistKeyFor about it", name, f.Kind())
			}
			check(name, model, k)
		}
	}
	for name, mut := range map[string]func(*simulateKey){
		"w":          func(k *simulateKey) { k.w++ },
		"h":          func(k *simulateKey) { k.h++ },
		"iterations": func(k *simulateKey) { k.iterations++ },
		"watchdog":   func(k *simulateKey) { k.watchdog++ },
		"program":    func(k *simulateKey) { k.kernel[31] ^= 1 },
		"compiler":   func(k *simulateKey) { k.opts.NoClauseTemps = true },
	} {
		k := base
		mut(&k)
		check(name, model, k)
	}
	check("model", "another model", base)
}

func TestSourceIDCoversEveryField(t *testing.T) {
	// Changing the generator or any one field of the settled parameters
	// must change a generated kernel's identity. Params is walked by
	// reflection, so a field added to it without an encoding in
	// sourceID fails here.
	base := kerngen.Params{Name: "k", Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1, ALUFetchRatio: 1}
	seen := map[[32]byte]string{sourceID(GenALUFetch, base): "nothing"}
	check := func(name string, g Generator, p kerngen.Params) {
		id := sourceID(g, p)
		if prev, dup := seen[id]; dup {
			t.Errorf("changing %s gives the identity of changing %s", name, prev)
		}
		seen[id] = name
	}
	v := reflect.ValueOf(base)
	for i := 0; i < v.NumField(); i++ {
		p := base
		f := reflect.ValueOf(&p).Elem().Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.25)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("Params.%s has kind %s; teach this test and sourceID about it", name, f.Kind())
		}
		check("Params."+name, GenALUFetch, p)
	}
	check("generator", GenGeneric, base)
	// The name is length-prefixed: moving a byte between the name and
	// the next field cannot collide.
	if sourceID(GenGeneric, kerngen.Params{Name: "ab"}) == sourceID(GenGeneric, kerngen.Params{Name: "a"}) {
		t.Error("names of different lengths share an identity")
	}
}

func TestEveryGeneratorHasACanary(t *testing.T) {
	// The fingerprint is what ties a generated kernel's source-keyed
	// entries to what its generator makes, so every generator needs a
	// canary of its own.
	for g := range Generator(len(generators)) {
		n := 0
		for _, c := range canaries {
			if c.gen == g {
				n++
			}
		}
		if n != 1 {
			t.Errorf("generator %d has %d fingerprint canaries, want 1", g, n)
		}
	}
	if len(canaries) != len(generators) {
		t.Errorf("%d canaries for %d generators", len(canaries), len(generators))
	}
}

func TestPersistKeyCarriesModelFingerprint(t *testing.T) {
	// Two binaries with different models never share an entry, however
	// equal the launch.
	l := persistConfig(t, New(Options{}))
	k := simulateKey{kernel: l.k.ID(), spec: l.cfg.Spec, order: l.cfg.Order, w: l.cfg.W, h: l.cfg.H}
	if persistKeyFor(modelFingerprint(), k) == persistKeyFor("another model", k) {
		t.Error("entries of different models share a key")
	}
}

func TestPersistTierKeySeparatesConfigs(t *testing.T) {
	// Each case is a pair of configs the tier must keep apart: with one
	// persisted, a fresh pipeline simulating the other misses and
	// computes, in either order. Resume runs through the tier, so these
	// are what stop a rerun from splicing stale timings into a figure.
	withParams := func(mut func(*kerngen.Params)) func(*testing.T, *Pipeline) testLaunch {
		return func(t *testing.T, p *Pipeline) testLaunch {
			params := kerngen.Params{
				Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
				ALUFetchRatio: 1.0, Name: "same_name",
			}
			mut(&params)
			k, err := p.Generate(GenALUFetch, params)
			if err != nil {
				t.Fatal(err)
			}
			if k.Name != "same_name" {
				t.Fatalf("kernel named %q, want the pinned name", k.Name)
			}
			return testLaunch{k: k, cfg: sim.Config{
				Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(),
				W: 64, H: 64, Iterations: 1,
			}}
		}
	}
	base := withParams(func(*kerngen.Params) {})
	with := func(mut func(*sim.Config)) func(*testing.T, *Pipeline) testLaunch {
		return func(t *testing.T, p *Pipeline) testLaunch {
			l := base(t, p)
			mut(&l.cfg)
			return l
		}
	}
	cases := []struct {
		name string
		b    func(*testing.T, *Pipeline) testLaunch
	}{
		// Same kernel name, different IL body (8 inputs, not 4).
		{"same_name_different_body", withParams(func(p *kerngen.Params) { p.Inputs = 8 })},
		{"iterations", with(func(c *sim.Config) { c.Iterations = 2 })},
		// A -max-domain clamp against the full domain.
		{"clamped_domain", with(func(c *sim.Config) { c.W, c.H = 16, 16 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pair := [2]func(*testing.T, *Pipeline) testLaunch{base, c.b}
			for first := range pair {
				dir := t.TempDir()
				p1 := New(Options{PersistDir: dir})
				if _, err := p1.runLaunch(pair[first](t, p1)); err != nil {
					t.Fatal(err)
				}
				p2 := New(Options{PersistDir: dir})
				if _, err := p2.runLaunch(pair[1-first](t, p2)); err != nil {
					t.Fatal(err)
				}
				if got := persistCount(t, p2, "hits"); got != 0 {
					t.Errorf("config %d served config %d's entry (persist.hits = %d)", 1-first, first, got)
				}
				if got := persistCount(t, p2, "writes"); got != 1 {
					t.Errorf("persist.writes = %d, want 1 distinct entry", got)
				}
			}
		})
	}
}
