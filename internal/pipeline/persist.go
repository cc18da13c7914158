package pipeline

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// The persistent tier: an append-only record log under the in-memory
// Simulate store. The Simulate stage is where the launch path's real
// time goes — generate/compile/trace/replay artifacts rebuild in
// microseconds, but a timing result embodies a full cache replay plus
// simulation — so Simulate results are the one artifact worth keeping
// across process restarts. A daemon restarted under a populated
// -cache-dir replays yesterday's campaign from disk instead of
// recomputing it.
//
// Layout: <dir>/simulate/<pid>-<random>.seg. Each tier that writes
// appends to a segment of its own, created with O_EXCL at its first
// store, so concurrent shard processes (and several pipelines in one
// process) never share a file, and no name ever needs cleaning up: a
// segment is never renamed, rewritten or deleted. A record is
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//	payload = version byte | 32-byte key | sim.Result, 15 fixed 8-byte fields
//
// little-endian, floats as math.Float64bits, 161 bytes in all, so a
// result served from disk is bit-identical to the freshly computed one
// and figures match byte for byte. A record of another version is
// skipped: a miss. The key is the SHA-256 of a fixed binary encoding of
// the simulate key (persistKeyFor): the model fingerprint, the kernel's
// identity, the compiler options and every launch-shape field.
//
// Visibility: when the tier opens it reads every segment once into an
// in-memory index, and load is a map lookup. Records another process
// appends after that are seen at the next open, never live; nothing
// relies on seeing them earlier, because shards combine in a later run
// over the shared directory. The index holds one key and one result per
// distinct record: 32 + 120 bytes, about 210 to 330 with Go's map slack.
//
// Durability: store appends one record with a single write and fsyncs
// the segment before it counts the write, so each result is durable on
// its own and nothing waits to be batched. A record a crash tears
// can only be its segment's last; a failed write abandons the segment,
// and the next store opens a new one, so a torn record never sits in
// front of good ones. A torn tail or a record that fails its checksum
// is a miss. The tier is write-through and best-effort: a failed store
// counts on pipeline.persist.errors and the launch proceeds. Counters:
//
//	pipeline.persist.hits    — results served from disk
//	pipeline.persist.misses  — lookups that fell through to compute
//	pipeline.persist.writes  — results written through to disk
//	pipeline.persist.errors  — torn, corrupt or unreadable records at open, and failed writes

const (
	segmentDir    = "simulate"
	segmentExt    = ".seg"
	recordVersion = 3
	recordHeader  = 8      // length, checksum
	resultBytes   = 15 * 8 // encodeResult's fields
	recordPayload = 1 + sha256.Size + resultBytes
	recordBytes   = recordHeader + recordPayload
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// persistKey addresses one record: the SHA-256 of persistKeyFor's
// encoding.
type persistKey [sha256.Size]byte

type persistTier struct {
	dir   string // <PersistDir>/simulate
	model string // modelFingerprint, folded into every key

	mu    sync.Mutex
	index map[persistKey]sim.Result
	seg   *os.File // appends go here; nil before the first store and after a failed one

	hits   *obs.Counter
	misses *obs.Counter
	writes *obs.Counter
	errs   *obs.Counter
}

// newPersistTier opens the tier at dir: it reads every segment there
// into the index, counting the records it cannot use as errors.
func newPersistTier(dir string, reg *obs.Registry) *persistTier {
	t := &persistTier{
		dir:    filepath.Join(dir, segmentDir),
		model:  modelFingerprint(),
		index:  make(map[persistKey]sim.Result),
		hits:   reg.Counter("pipeline.persist.hits"),
		misses: reg.Counter("pipeline.persist.misses"),
		writes: reg.Counter("pipeline.persist.writes"),
		errs:   reg.Counter("pipeline.persist.errors"),
	}
	sc := scanSegments(t.dir, func(k persistKey, res sim.Result) { t.index[k] = res })
	t.errs.Add(int64(sc.TornTails + sc.Torn + sc.Unreadable))
	return t
}

// persistKeyFor derives the record key for a simulate key under a model
// fingerprint. Every field is written at a fixed width (the model with
// its length), so the encoding is injective; nothing goes through
// reflection or text. The compiler target is two of the spec's fields,
// so it needs no bytes of its own.
func persistKeyFor(model string, k simulateKey) persistKey {
	var buf [512]byte // room for all of it with a 64-digit model
	le := binary.LittleEndian
	b := le.AppendUint64(buf[:0], uint64(len(model)))
	b = append(b, model...)
	b = append(b, k.kernel[:]...)
	b = append(b, boolByte(k.opts.NoPVForwarding), boolByte(k.opts.NoClauseTemps))
	s := k.spec
	for _, v := range [...]int{
		int(s.Arch), s.ALUs, s.TextureUnits, s.SIMDEngines, s.CoreClockMHz,
		s.MemClockMHz, int(s.MemKind), s.WavefrontSize, s.ThreadProcessors,
		s.TexUnitsPerSIMD, s.SlotsPerTP, s.RegistersPerSIMD, s.MaxWavesPerSIMD,
		s.MaxFetchesPerTEXClause, s.MaxSlotsPerALUClause, s.ClauseTempsPerSlot,
		s.L1CacheBytes, s.L1LineBytes, s.L1Ways, s.L2CacheBytes, s.L2Ways,
		s.L2BytesPerCycle, s.MemChannels, s.MemBusBitsPerChan,
		s.GlobalReadLatency, s.TexMissLatency, s.TexHitLatency,
		s.TexBytesPerUnitCycle, s.StreamStoreCycles,
		int(k.order.Mode), k.order.BlockW, k.order.BlockH,
		k.w, k.h, k.iterations,
	} {
		b = le.AppendUint64(b, uint64(int64(v)))
	}
	b = append(b, boolByte(s.SupportsCompute),
		boolByte(k.ablate.SingleWavefront), boolByte(k.ablate.NoBurstWrites),
		boolByte(k.ablate.LinearTextures))
	b = le.AppendUint64(b, k.watchdog)
	return sha256.Sum256(b)
}

// encodeResult appends res at a fixed width, floats bit-exact.
func encodeResult(b []byte, res sim.Result) []byte {
	le := binary.LittleEndian
	c := res.Counters
	for _, v := range [...]uint64{
		res.Cycles, math.Float64bits(res.Seconds),
		uint64(int64(res.WavesPerSIMD)), uint64(int64(res.GPRs)),
		uint64(int64(res.TotalWaves)), uint64(int64(res.Batches)),
		math.Float64bits(res.HitRate),
		c.ALU, c.TexIssue, c.L2Fill, c.TexFill, c.MemGlobal, c.Export,
		uint64(int64(res.Bottleneck)), uint64(int64(res.GPRWrites)),
	} {
		b = le.AppendUint64(b, v)
	}
	return b
}

// decodeResult reads what encodeResult wrote.
func decodeResult(b []byte) sim.Result {
	le := binary.LittleEndian
	var v [resultBytes / 8]uint64
	for i := range v {
		v[i] = le.Uint64(b[8*i:])
	}
	return sim.Result{
		Cycles: v[0], Seconds: math.Float64frombits(v[1]),
		WavesPerSIMD: int(int64(v[2])), GPRs: int(int64(v[3])),
		TotalWaves: int(int64(v[4])), Batches: int(int64(v[5])),
		HitRate: math.Float64frombits(v[6]),
		Counters: sim.Counters{
			ALU: v[7], TexIssue: v[8], L2Fill: v[9], TexFill: v[10],
			MemGlobal: v[11], Export: v[12],
		},
		Bottleneck: sim.Bottleneck(int64(v[13])), GPRWrites: int(int64(v[14])),
	}
}

// load serves a result the index holds; anything else is a miss.
func (t *persistTier) load(k simulateKey) (sim.Result, bool) {
	key := persistKeyFor(t.model, k)
	t.mu.Lock()
	res, ok := t.index[key]
	t.mu.Unlock()
	if !ok {
		t.misses.Inc()
		return sim.Result{}, false
	}
	t.hits.Inc()
	return res, true
}

// store appends a computed result to the tier's segment, best-effort:
// the in-memory store already holds the result, so a failed write costs
// only a future cold start, never the launch.
func (t *persistTier) store(k simulateKey, res sim.Result) {
	key := persistKeyFor(t.model, k)
	var buf [recordBytes]byte
	rec := append(buf[:recordHeader], recordVersion)
	rec = append(rec, key[:]...)
	rec = encodeResult(rec, res)
	binary.LittleEndian.PutUint32(rec[0:], recordPayload)
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[recordHeader:], castagnoli))

	t.mu.Lock()
	err := t.append(rec)
	if err == nil {
		t.index[key] = res
	}
	t.mu.Unlock()
	if err != nil {
		t.errs.Inc()
		return
	}
	t.writes.Inc()
}

// append writes one record with a single write and syncs it, opening a
// segment first if the tier has none. On any failure it abandons the
// segment: whatever part of the record reached it stays that segment's
// tail. The caller holds mu.
func (t *persistTier) append(rec []byte) error {
	if t.seg == nil {
		f, err := createSegment(t.dir)
		if err != nil {
			return err
		}
		t.seg = f
	}
	_, err := t.seg.Write(rec)
	if err == nil {
		err = t.seg.Sync()
	}
	if err != nil {
		t.seg.Close()
		t.seg = nil
	}
	return err
}

// createSegment creates a new, uniquely named, empty segment in dir.
func createSegment(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%d-%x%s", os.Getpid(), id, segmentExt)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// The new name lives in the directory: sync it so the segment
	// survives a machine crash. Directory fsync is not portable, so a
	// refusal only costs that.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return f, nil
}

// PersistScan counts what the segments of a persistent tier hold.
type PersistScan struct {
	Unreadable int // segment files that could not be read
	Records    int // records that pass their checksum
	// TornTails counts segments whose last record is incomplete or
	// fails its checksum: a write a crash or a failed write cut short.
	TornTails int
	// Torn counts records that fail their checksum with more data after
	// them in their segment. The append protocol never leaves one, so
	// each is damage from outside it.
	Torn int
}

// ScanPersistDir reads every segment of the persistent tier rooted at
// dir (a -cache-dir) and counts its records; it is the one reader of the
// record format outside the tier itself. A missing tier scans as empty.
func ScanPersistDir(dir string) PersistScan {
	return scanSegments(filepath.Join(dir, segmentDir), nil)
}

// scanSegments reads every segment in dir, handing each good record to
// each when it is non-nil.
func scanSegments(dir string, each func(persistKey, sim.Result)) PersistScan {
	var sc PersistScan
	names, _ := filepath.Glob(filepath.Join(dir, "*"+segmentExt)) // the pattern is well formed
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			sc.Unreadable++
			continue
		}
		sc.scan(data, each)
	}
	return sc
}

// scan walks one segment's records. A length that is zero or runs past
// the segment cannot be skipped, so the rest of the segment is its torn
// tail; a checksum failure skips just that record. A record of another
// version passes its checksum but is not this format's to read.
func (sc *PersistScan) scan(data []byte, each func(persistKey, sim.Result)) {
	le := binary.LittleEndian
	for len(data) > 0 {
		if len(data) < recordHeader {
			sc.TornTails++
			return
		}
		n := int(le.Uint32(data))
		if n == 0 || n > len(data)-recordHeader {
			sc.TornTails++
			return
		}
		sum := le.Uint32(data[4:])
		payload := data[recordHeader : recordHeader+n]
		data = data[recordHeader+n:]
		switch {
		case crc32.Checksum(payload, castagnoli) != sum:
			if len(data) == 0 {
				sc.TornTails++
			} else {
				sc.Torn++
			}
		case n != recordPayload || payload[0] != recordVersion:
		default:
			sc.Records++
			if each != nil {
				var k persistKey
				copy(k[:], payload[1:])
				each(k, decodeResult(payload[1+sha256.Size:]))
			}
		}
	}
}

// canaries are the kernels modelFingerprint times, one per generator
// (TestEveryGeneratorHasACanary): texture fetches feeding ALU work, a
// global read, burst global writes, constants in a compute-mode walk,
// the domain kernel and both grouped-sampling kernels, each small enough
// that the whole set runs in milliseconds.
var canaries = []struct {
	gen    Generator
	params kerngen.Params
}{
	{GenGeneric, kerngen.Params{Mode: il.Compute, Type: il.Float, Inputs: 4, Outputs: 1, OutSpace: il.GlobalSpace, ALUOps: 6, Constants: 2}},
	{GenALUFetch, kerngen.Params{Mode: il.Pixel, Type: il.Float4, Inputs: 8, Outputs: 1, ALUFetchRatio: 2}},
	{GenReadLatency, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 5, Outputs: 1, InputSpace: il.GlobalSpace}},
	{GenWriteLatency, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 2, Outputs: 4, OutSpace: il.GlobalSpace}},
	{GenDomain, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 2}},
	{GenRegisterUsage, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 12, Outputs: 1, ALUFetchRatio: 1, Space: 2, Step: 3}},
	{GenClauseUsage, kerngen.Params{Mode: il.Pixel, Type: il.Float, Inputs: 12, Outputs: 1, ALUFetchRatio: 1, Space: 2, Step: 3}},
}

// modelFingerprint digests the model built into this binary: the
// canaries on every built-in card, generated, compiled, replayed and
// simulated on a bare store-less pipeline, their IL content hashes,
// programs and results hashed. Every persisted key carries it, so a
// change to a generator, the compiler, the cache model or the simulator
// that moves any canary re-keys the whole tier: entries a different
// model wrote miss instead of serving its timings. A generated kernel's
// key starts from its source, not its code, so the canaries' content
// hashes are what tie those keys to the generators' output. The model
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
			sum, err := k.Hash()
			if err != nil {
				fmt.Fprintln(h, err)
				continue
			}
			h.Write(sum[:])
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
