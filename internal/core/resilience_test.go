package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/pipeline"
)

// sweepCfg is a cheap four-point sweep on one card; kernels are named
// alufetch_r0.25 .. alufetch_r1.00.
func sweepCfg() ALUFetchConfig {
	return ALUFetchConfig{
		Cards: []Card{{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}},
		W:     64, H: 64,
		RatioMax: 1.0,
	}
}

func quickSuite() *Suite {
	s := NewSuite()
	s.Iterations = 1
	s.RetryBackoff = time.Microsecond
	return s
}

func TestSweepRecordsTimeoutFailure(t *testing.T) {
	s := quickSuite()
	s.DeadlineCycles = 1 << 20
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	fig, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("sweep with one hung point should complete, got %v", err)
	}
	var failed []Run
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("failed points = %d, want 1 (%+v)", len(failed), runs)
	}
	f := failed[0]
	if f.X != 0.5 {
		t.Errorf("failed point at x=%g, want 0.5", f.X)
	}
	if !strings.Contains(f.Err, "kernel timeout") || !strings.Contains(f.Err, "watchdog") {
		t.Errorf("failure record lacks taxonomy/diagnostic: %q", f.Err)
	}
	if got := s.Failures(); len(got) != 1 || got[0].Err != f.Err {
		t.Errorf("suite failure log: %+v", got)
	}
	// The failed point must not fold into the plotted curve.
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(runs)-1 {
		t.Errorf("series has %d points, want %d", len(fig.Series[0].Points), len(runs)-1)
	}
}

func TestSweepPanicRecoveredIntoPointError(t *testing.T) {
	s := quickSuite()
	s.testHookBeforeRun = func(p KernelPoint, attempt int) {
		if p.X == 0.75 {
			panic("injected test panic")
		}
	}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("sweep with one panicking point should complete, got %v", err)
	}
	var failed []Run
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	if len(failed) != 1 || failed[0].X != 0.75 {
		t.Fatalf("failed = %+v, want exactly the panicked point", failed)
	}
	if !strings.Contains(failed[0].Err, "panic during launch") ||
		!strings.Contains(failed[0].Err, "injected test panic") {
		t.Errorf("panic record: %q", failed[0].Err)
	}
}

func TestSweepRetriesTransientFaults(t *testing.T) {
	s := quickSuite()
	s.Retries = 8
	s.Faults = &fault.Plan{Seed: 11, Specs: []fault.Spec{
		{Kind: fault.Transient, Prob: 0.5},
	}}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("transients should be retried away, got %v", err)
	}
	retried := false
	for _, r := range runs {
		if r.Failed() {
			t.Fatalf("point failed despite retries: %+v", r)
		}
		if r.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("no point needed a retry; seed no longer exercises the retry path")
	}
}

func TestSweepTransientExhaustionIsRecorded(t *testing.T) {
	s := quickSuite()
	s.Retries = 2
	// prob=1 never clears, whatever the attempt: retries exhaust.
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Transient, Prob: 1, Match: "alufetch_r0.25"},
	}}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("exhausted transient should be a point failure, got %v", err)
	}
	for _, r := range runs {
		if r.X == 0.25 {
			if !r.Failed() || r.Attempts != 3 {
				t.Fatalf("exhausted point: %+v, want failed after 3 attempts", r)
			}
			if !strings.Contains(r.Err, "transient launch failure") {
				t.Errorf("record lacks taxonomy: %q", r.Err)
			}
		} else if r.Failed() {
			t.Fatalf("unexpected failure: %+v", r)
		}
	}
}

func TestSweepDeviceLostIsFatal(t *testing.T) {
	s := quickSuite()
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := s.ALUFetchRatio(sweepCfg())
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal ErrDeviceLost, got %v", err)
	}
}

func TestSweepNoPlanBitIdenticalToBaseline(t *testing.T) {
	// The determinism guard: arming the resilient machinery without a
	// fault plan must not perturb a single bit of the figures.
	base := quickSuite()
	fig1, _, err := base.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	armed := quickSuite()
	armed.Retries = 3
	armed.DeadlineCycles = 1 << 36
	fig2, _, err := armed.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig1.CSV() != fig2.CSV() {
		t.Fatalf("resilience machinery changed results:\n%s\nvs\n%s", fig1.CSV(), fig2.CSV())
	}
}

// readCheckpoint counts the completed points recorded in a checkpoint.
func readCheckpoint(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Signature string         `json:"signature"`
		Runs      map[string]Run `json:"runs"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return len(f.Runs)
}

func TestCheckpointResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	// First run: one point times out, the other three complete and are
	// checkpointed — the surviving state of an interrupted campaign.
	s1 := quickSuite()
	s1.Checkpoint = ckpath
	s1.DeadlineCycles = 1 << 20
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	_, runs1, err := s1.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if n := readCheckpoint(t, ckpath); n != len(runs1)-1 {
		t.Fatalf("checkpoint holds %d points, want %d", n, len(runs1)-1)
	}

	// Resume without the fault: only the missing point may recompute.
	s2 := quickSuite()
	s2.Checkpoint = ckpath
	fig2, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.KernelLaunches(); got != 1 {
		t.Fatalf("resume launched %d kernels, want 1 (the failed point only)", got)
	}
	for _, r := range runs2 {
		if r.Failed() {
			t.Fatalf("resumed sweep still has failures: %+v", r)
		}
	}

	// The resumed figure matches a clean uncheckpointed run bit for bit.
	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Fatalf("resumed figure differs from clean run:\n%s\nvs\n%s", fig2.CSV(), figClean.CSV())
	}
}

func TestCheckpointInterruptedMidSweepResumes(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	// A lost device kills the first run mid-sweep — the checkpoint keeps
	// whatever completed before the abort.
	s1 := quickSuite()
	s1.Workers = 1 // deterministic: points complete in order until the fatal one
	s1.Checkpoint = ckpath
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := s1.ALUFetchRatio(sweepCfg())
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal abort, got %v", err)
	}
	completed := readCheckpoint(t, ckpath)
	if completed == 0 {
		t.Fatal("nothing checkpointed before the abort")
	}

	s2 := quickSuite()
	s2.Checkpoint = ckpath
	_, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(runs2) - completed)
	if got := s2.KernelLaunches(); got != want {
		t.Fatalf("resume launched %d kernels, want %d (total %d - checkpointed %d)",
			got, want, len(runs2), completed)
	}
}

func TestCheckpointIgnoresForeignSweep(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	s1 := quickSuite()
	s1.Checkpoint = ckpath
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}

	// A different sweep (other card) with the same checkpoint path must
	// recompute everything, not resume foreign points.
	other := sweepCfg()
	other.Cards = []Card{{Arch: device.RV870, Mode: il.Pixel, Type: il.Float}}
	s2 := quickSuite()
	s2.Checkpoint = ckpath
	_, runs2, err := s2.ALUFetchRatio(other)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.KernelLaunches(); got != int64(len(runs2)) {
		t.Fatalf("foreign checkpoint restored points: launched %d, want %d", got, len(runs2))
	}
}

func TestSweepSignatureKeysOnKernelBodyNotName(t *testing.T) {
	// Two kernels pinned to the same name but generated with different
	// bodies (8 vs 4 inputs) must produce different sweep signatures:
	// the signature keys on the structural IL hash, not the name.
	s := quickSuite()
	pa := kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0, Name: "same_name",
	}
	pb := pa
	pb.Inputs = 8
	ka, err := s.generate(pipeline.GenALUFetch, pa)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := s.generate(pipeline.GenALUFetch, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ka.Name != kb.Name {
		t.Fatalf("precondition broken: names differ (%q vs %q)", ka.Name, kb.Name)
	}
	if ka.Hash() == kb.Hash() {
		t.Fatal("precondition broken: kernel bodies identical")
	}
	card := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	ptsA := []KernelPoint{{Card: card, X: 1, K: ka, W: 64, H: 64}}
	ptsB := []KernelPoint{{Card: card, X: 1, K: kb, W: 64, H: 64}}
	if sweepSignature(ptsA, 1) == sweepSignature(ptsB, 1) {
		t.Fatal("sweep signature ignores the kernel body: different kernels under one name share a signature")
	}
}

func TestCheckpointRejectsSameNameDifferentKernelBody(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	s1 := quickSuite()
	s1.Checkpoint = ckpath
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}

	// The same sweep with half the inputs: every kernel keeps its name
	// (alufetch names encode only the ratio), x and domain, but the IL
	// bodies differ. Resuming from the first run's checkpoint would
	// splice the 16-input timings into the 8-input figure.
	other := sweepCfg()
	other.Inputs = 8
	s2 := quickSuite()
	s2.Checkpoint = ckpath
	_, runs2, err := s2.ALUFetchRatio(other)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.KernelLaunches(); got != int64(len(runs2)) {
		t.Fatalf("checkpoint for a different kernel body was resumed: launched %d, want %d",
			got, len(runs2))
	}
}

func TestCheckpointCorruptFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(ckpath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := quickSuite()
	s.Checkpoint = ckpath
	fig, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("corrupt checkpoint wedged the sweep: %v", err)
	}
	// Everything recomputed: the garbage restored nothing.
	if got := s.KernelLaunches(); got != int64(len(runs)) {
		t.Fatalf("launched %d kernels, want %d (corrupt file must restore nothing)", got, len(runs))
	}
	// The torn file is preserved for diagnosis, not destroyed.
	quarantined, err := os.ReadFile(ckpath + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if string(quarantined) != "{not json" {
		t.Errorf("quarantine file content changed: %q", quarantined)
	}
	if got := s.Metrics().Snapshot().Get("core.checkpoint.quarantined"); got != 1 {
		t.Errorf("core.checkpoint.quarantined = %d, want 1", got)
	}
	// The sweep rebuilt a valid checkpoint in place and its figure matches
	// a clean run.
	if n := readCheckpoint(t, ckpath); n != len(runs) {
		t.Errorf("rebuilt checkpoint holds %d points, want %d", n, len(runs))
	}
	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig.CSV() != figClean.CSV() {
		t.Errorf("figure after quarantine differs from clean run")
	}
}

func TestCheckpointTruncatedMidRecordRecovers(t *testing.T) {
	// A torn write — the failure mode crash-atomic saves prevent on
	// rename-capable filesystems, and quarantine absorbs everywhere else:
	// a checkpoint cut off mid-record must not wedge the resume.
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	s1 := quickSuite()
	s1.Checkpoint = ckpath
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside a record: valid prefix, unterminated JSON.
	if err := os.WriteFile(ckpath, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := quickSuite()
	s2.Checkpoint = ckpath
	fig2, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("truncated checkpoint aborted the resume: %v", err)
	}
	if got := s2.KernelLaunches(); got != int64(len(runs2)) {
		t.Fatalf("truncated checkpoint restored points: launched %d, want %d", got, len(runs2))
	}
	if _, err := os.Stat(ckpath + ".corrupt"); err != nil {
		t.Errorf("truncated file not quarantined: %v", err)
	}
	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Errorf("recovered figure differs from clean run")
	}
}

func TestCheckpointQuarantineCollisionIsError(t *testing.T) {
	// If even the quarantine rename fails (a directory squatting on the
	// .corrupt name), the error surfaces instead of silently looping.
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(ckpath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(ckpath+".corrupt", 0o755); err != nil {
		t.Fatal(err)
	}
	// Make the rename fail by planting a non-empty directory at the target.
	if err := os.WriteFile(filepath.Join(ckpath+".corrupt", "occupied"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := quickSuite()
	s.Checkpoint = ckpath
	if _, _, err := s.ALUFetchRatio(sweepCfg()); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("failed quarantine not surfaced: %v", err)
	}
}

// interruptAfter arms the test hook to call Interrupt once the sweep has
// started its nth launch, returning a counter of launches seen.
func interruptAfter(s *Suite, n int64) *atomic.Int64 {
	var seen atomic.Int64
	s.testHookBeforeRun = func(p KernelPoint, attempt int) {
		if seen.Add(1) == n {
			s.Interrupt()
		}
	}
	return &seen
}

func TestInterruptedSweepResumesBitIdentical(t *testing.T) {
	// The resume-under-concurrency contract: a sweep cancelled mid-flight
	// on a multi-worker pool and resumed from its checkpoint must produce
	// figure CSVs bit-identical to an uninterrupted run.
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "sweep.json")

	// Eight points on two workers: interrupting at the second launch
	// leaves undispatched points behind, whatever the scheduling.
	cfg := sweepCfg()
	cfg.RatioMax = 2.0

	s1 := quickSuite()
	s1.Workers = 2
	s1.Checkpoint = ckpath
	interruptAfter(s1, 2)
	_, _, err := s1.ALUFetchRatio(cfg)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("want ErrSweepInterrupted, got %v", err)
	}
	if got := s1.Metrics().Snapshot().Get("core.sweep.interrupted"); got != 1 {
		t.Errorf("core.sweep.interrupted = %d, want 1", got)
	}
	completed := readCheckpoint(t, ckpath)
	if completed == 0 || completed >= 8 {
		t.Fatalf("checkpoint holds %d of 8 points; interrupt landed outside mid-sweep", completed)
	}

	s2 := quickSuite()
	s2.Workers = 2
	s2.Checkpoint = ckpath
	fig2, runs2, err := s2.ALUFetchRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.KernelLaunches(), int64(len(runs2)-completed); got != want {
		t.Fatalf("resume launched %d kernels, want %d (total %d - checkpointed %d)",
			got, want, len(runs2), completed)
	}

	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Fatalf("interrupted+resumed figure differs from clean run:\n%s\nvs\n%s", fig2.CSV(), figClean.CSV())
	}
}

func TestInterruptIdleSuiteIsNoop(t *testing.T) {
	s := quickSuite()
	s.Interrupt() // nothing in flight: must not wedge the next sweep
	if _, _, err := s.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatalf("sweep after idle Interrupt failed: %v", err)
	}
}

func TestRunKernelPointsMatchesFigureSweep(t *testing.T) {
	// RunKernelPoints is the soak campaigns' entry; driving the same
	// kernels through it must reproduce the figure sweep's runs exactly.
	s := quickSuite()
	fig, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	_ = fig

	s2 := quickSuite()
	var kps []KernelPoint
	card := sweepCfg().Cards[0]
	for _, r := range []float64{0.25, 0.5, 0.75, 1.0} {
		p := card.params(16, 1, il.TextureSpace, il.TextureSpace)
		p.ALUFetchRatio = r
		k, err := s2.generate(pipeline.GenALUFetch, p)
		if err != nil {
			t.Fatal(err)
		}
		kps = append(kps, KernelPoint{Card: card, X: r, K: k, W: 64, H: 64})
	}
	runs2, err := s2.RunKernelPoints(context.Background(), kps, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs2) != len(runs) {
		t.Fatalf("RunKernelPoints returned %d runs, want %d", len(runs2), len(runs))
	}
	for i := range runs {
		if runs[i] != runs2[i] {
			t.Errorf("run %d differs: %+v vs %+v", i, runs[i], runs2[i])
		}
	}
}

func TestSweepSignaturePinned(t *testing.T) {
	// The signature is the identity checkpoints and shard files resume
	// under: if it drifts, files written by an earlier build silently
	// stop resuming. Pin it over a fixed three-point list covering two
	// kernel bodies, a nil kernel, two cards, a fractional x and a
	// non-square domain.
	s := quickSuite()
	p := kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0, Name: "sig_pin",
	}
	ka, err := s.generate(pipeline.GenALUFetch, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Inputs = 8
	kb, err := s.generate(pipeline.GenALUFetch, p)
	if err != nil {
		t.Fatal(err)
	}
	rv770 := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	rv870 := Card{Arch: device.RV870, Mode: il.Compute, Type: il.Float4, BlockW: 64, BlockH: 1}
	pts := []KernelPoint{
		{Card: rv770, X: 0.25, K: ka, W: 64, H: 64},
		{Card: rv870, X: 8, K: kb, W: 256, H: 32},
		{Card: rv770, X: 1e-3, W: 16, H: 16},
	}
	const want = "1b6a82a1195e7508"
	if got := sweepSignature(pts, 3); got != want {
		t.Fatalf("sweepSignature = %s, pinned %s", got, want)
	}
}

func TestRunKernelPointsClampsACopy(t *testing.T) {
	// The MaxDomain clamp must not rewrite the caller's points: the
	// campaign scheduler keeps its units' points and fans them out later.
	s := quickSuite()
	s.MaxDomain = 16
	card := sweepCfg().Cards[0]
	p := card.params(4, 1, il.TextureSpace, il.TextureSpace)
	p.ALUFetchRatio = 1
	k, err := s.generate(pipeline.GenALUFetch, p)
	if err != nil {
		t.Fatal(err)
	}
	kps := []KernelPoint{{Card: card, X: 1, K: k, W: 64, H: 32}}
	if _, err := s.RunKernelPoints(context.Background(), kps, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if kps[0].W != 64 || kps[0].H != 32 {
		t.Fatalf("caller's point clamped in place to %dx%d", kps[0].W, kps[0].H)
	}
}

func TestRunKernelPointsRejectsBadShard(t *testing.T) {
	s := quickSuite()
	for _, o := range []SweepOptions{{Shard: 2, Shards: 2}, {Shard: -1, Shards: 2}, {Shard: 1}} {
		if _, err := s.RunKernelPoints(context.Background(), nil, o); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("shard %d/%d: err = %v, want out of range", o.Shard, o.Shards, err)
		}
	}
}
