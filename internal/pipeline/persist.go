package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"amdgpubench/internal/device"
	"amdgpubench/internal/fsatomic"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// The persistent tier: a content-addressed directory store under the
// in-memory Simulate store. The Simulate stage is where the launch
// path's real time goes — generate/compile/trace/replay artifacts
// rebuild in microseconds, but a timing result embodies a full cache
// replay plus simulation — so Simulate results are the one artifact
// worth keeping across process restarts. A daemon restarted under a
// populated -cache-dir replays yesterday's campaign from disk instead
// of recomputing it.
//
// Layout: <dir>/simulate/<hh>/<hash64>.json, where hash is the SHA-256
// of the canonical JSON encoding of the key's exported mirror
// (persistSimKey) and hh its first byte — two hex digits of fan-out
// keeps directories small at millions of entries. The value is the
// sim.Result as JSON: Go's float64 round-trip through encoding/json is
// exact (shortest-representation printing), so a result served from
// disk is bit-identical to the freshly computed one and figures match
// byte for byte.
//
// Writes go through fsatomic.WriteFile — the unique-temp crash-atomic
// writer — so concurrent requests computing the same key, or a SIGKILL
// mid-write, can never publish a torn entry; a torn entry from outside
// interference is detected on load (JSON parse) and treated as a miss.
// The tier is write-through and best-effort: a failed store counts on
// pipeline.persist.errors and the launch proceeds; a failed load is a
// miss. Counters:
//
//	pipeline.persist.hits    — results served from disk
//	pipeline.persist.misses  — lookups that fell through to compute
//	pipeline.persist.writes  — results written through to disk
//	pipeline.persist.errors  — unreadable/corrupt entries and failed writes

// persistSimKey mirrors simulateKey with exported fields so it JSON-
// encodes completely. Everything the simulator reads is here; two
// configs that differ in any field hash to different entries, and so do
// two binaries whose timing models differ (Model).
type persistSimKey struct {
	Model      string // modelFingerprint of the binary that computed the entry
	ProgHash   string // hex of the compile key's digest (compileKey.hash)
	Spec       device.Spec
	Order      raster.Order
	W, H       int
	Iterations int
	Ablate     sim.Ablations
	Watchdog   uint64
}

type persistTier struct {
	dir   string
	model string // modelFingerprint, folded into every key

	hits   *obs.Counter
	misses *obs.Counter
	writes *obs.Counter
	errs   *obs.Counter
}

func newPersistTier(dir string, reg *obs.Registry) *persistTier {
	return &persistTier{
		dir:    dir,
		model:  modelFingerprint(),
		hits:   reg.Counter("pipeline.persist.hits"),
		misses: reg.Counter("pipeline.persist.misses"),
		writes: reg.Counter("pipeline.persist.writes"),
		errs:   reg.Counter("pipeline.persist.errors"),
	}
}

// pathFor derives the entry path for a simulate key.
func (t *persistTier) pathFor(k simulateKey) string {
	prog := k.src.hash()
	mirror := persistSimKey{
		Model:      t.model,
		ProgHash:   hex.EncodeToString(prog[:]),
		Spec:       k.spec,
		Order:      k.order,
		W:          k.w,
		H:          k.h,
		Iterations: k.iterations,
		Ablate:     k.ablate,
		Watchdog:   k.watchdog,
	}
	// json.Marshal of a struct is canonical: fields in declaration
	// order, no map iteration anywhere in the mirror.
	blob, err := json.Marshal(mirror)
	if err != nil {
		// Every field is a plain exported value; Marshal cannot fail.
		panic("pipeline: persist key encoding: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	name := hex.EncodeToString(sum[:])
	return filepath.Join(t.dir, "simulate", name[:2], name+".json")
}

// load serves a previously persisted result; a missing, unreadable or
// corrupt entry is a miss (corruption also counts an error).
func (t *persistTier) load(k simulateKey) (sim.Result, bool) {
	data, err := os.ReadFile(t.pathFor(k))
	if err != nil {
		if !os.IsNotExist(err) {
			t.errs.Inc()
		}
		t.misses.Inc()
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.errs.Inc()
		t.misses.Inc()
		return sim.Result{}, false
	}
	t.hits.Inc()
	return res, true
}

// store writes a computed result through to disk, best-effort: the
// in-memory store already holds the result, so a failed write costs
// only a future cold start, never the launch.
func (t *persistTier) store(k simulateKey, res sim.Result) {
	path := t.pathFor(k)
	data, err := json.Marshal(res)
	if err != nil {
		t.errs.Inc()
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.errs.Inc()
		return
	}
	if err := fsatomic.WriteFile(path, data); err != nil {
		t.errs.Inc()
		return
	}
	t.writes.Inc()
}

// canaries are the kernels modelFingerprint times: texture fetches
// feeding ALU work, burst global writes, and a compute-mode walk, each
// small enough that the whole set runs in milliseconds.
var canaries = []struct {
	gen    Generator
	params kerngen.Params
}{
	{GenALUFetch, kerngen.Params{Mode: il.Pixel, Type: il.Float4, Inputs: 8, Outputs: 1, ALUFetchRatio: 2}},
	{GenWriteLatency, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 2, Outputs: 4, OutSpace: il.GlobalSpace}},
	{GenALUFetch, kerngen.Params{Mode: il.Compute, Type: il.Float, Inputs: 4, Outputs: 1, OutSpace: il.GlobalSpace, ALUFetchRatio: 0.5}},
}

// modelFingerprint digests the timing model built into this binary: the
// canaries on every built-in card, compiled, replayed and simulated on a
// bare store-less pipeline, their programs and results hashed. Every
// persisted key carries it, so a change to the compiler, the cache model
// or the simulator that moves any canary re-keys the whole tier: entries
// a different model wrote miss instead of serving its timings. The model
// is fixed per binary, so the fingerprint is computed once per process,
// when the first tier opens.
func modelFingerprint() string {
	fingerprintOnce.Do(func() { fingerprint = computeFingerprint() })
	return fingerprint
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

func computeFingerprint() string {
	p := New(Options{Disabled: true})
	h := sha256.New()
	for _, spec := range device.All() {
		for _, c := range canaries {
			if c.params.Mode == il.Compute && !spec.SupportsCompute {
				continue
			}
			// Errors fold into the digest too: a canary that starts or
			// stops failing is a model change like any other.
			k, err := p.Generate(c.gen, c.params)
			if err != nil {
				fmt.Fprintln(h, err)
				continue
			}
			if prog, err := p.Compile(k, spec, ilc.Options{}); err != nil {
				fmt.Fprintln(h, err)
			} else {
				io.WriteString(h, isa.Disassemble(prog))
			}
			order := raster.PixelOrder()
			if c.params.Mode == il.Compute {
				order = raster.Naive64x1()
			}
			res, err := p.Simulate(obs.Span{}, k, ilc.Options{}, sim.Config{
				Spec: spec, Order: order, W: 64, H: 64, Iterations: 1,
			})
			blob, _ := json.Marshal(res) // a plain struct: cannot fail
			fmt.Fprintln(h, string(blob), err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
