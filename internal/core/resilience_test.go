package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/pipeline"
)

// sweepCard is the one card the cheap resilience sweeps run on.
var sweepCard = Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}

// ratioSweep plans Fig. 7's sweep on sweepCard up to ratio maxRatio, on
// a 64x64 domain; kernels are named alufetch_r0.25 ..
// alufetch_r<maxRatio>. At 1 it is a cheap four-point sweep.
func ratioSweep(s *Suite, maxRatio float64) (FigureSpec, error) {
	return clampTo(64)(keep(xAtMost(maxRatio))(s.ALUFetchSpec(ALUFetchConfig{Cards: []Card{sweepCard}})))
}

// quickSuite times one iteration and retries after a microsecond.
func quickSuite() *Suite {
	s := NewSuite()
	s.Iterations = 1
	s.RetryBackoff = time.Microsecond
	return s
}

// aluFetchPoints builds ratioSweep(s, 1)'s points by hand with the given
// input count: at 16 inputs they are its launches exactly.
func aluFetchPoints(t *testing.T, s *Suite, inputs int) []KernelPoint {
	t.Helper()
	var kps []KernelPoint
	for _, r := range []float64{0.25, 0.5, 0.75, 1.0} {
		p := sweepCard.params(inputs, 1, il.TextureSpace, il.TextureSpace)
		p.ALUFetchRatio = r
		k, err := s.Pipeline().Generate(pipeline.GenALUFetch, p)
		if err != nil {
			t.Fatal(err)
		}
		kps = append(kps, KernelPoint{Card: sweepCard, X: r, K: k, W: 64, H: 64})
	}
	return kps
}

func TestSweepRecordsTimeoutFailure(t *testing.T) {
	s := quickSuite()
	s.DeadlineCycles = 1 << 20
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	fig, runs, err := runOn(s)(ratioSweep(s, 1))
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
	// The failed point must not fold into the plotted curve.
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(runs)-1 {
		t.Errorf("series has %d points, want %d", len(fig.Series[0].Points), len(runs)-1)
	}
}

func TestSweepPanicRecoveredIntoPointError(t *testing.T) {
	s := quickSuite()
	s.BeforeLaunch = func(p KernelPoint, attempt int) {
		if p.X == 0.75 {
			panic("injected test panic")
		}
	}
	_, runs, err := runOn(s)(ratioSweep(s, 1))
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
	_, runs, err := runOn(s)(ratioSweep(s, 1))
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
	_, runs, err := runOn(s)(ratioSweep(s, 1))
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

// TestUnitSpanHoldsEveryAttempt: under transient faults each point is
// one unit span holding one launch span per attempt on its lane, and the
// sweep's Observe hook sees each resolved point exactly once.
func TestUnitSpanHoldsEveryAttempt(t *testing.T) {
	s := quickSuite()
	s.Retries = 2
	s.Tracer = obs.NewTracer()
	s.Faults = &fault.Plan{Seed: 11, Specs: []fault.Spec{{Kind: fault.Transient, Prob: 0.5}}}
	pts := aluFetchPoints(t, s, 16)
	var (
		mu       sync.Mutex
		observed = map[float64]int{}
	)
	runs, err := s.RunKernelPoints(context.Background(), pts, SweepOptions{Observe: func(r Run) {
		mu.Lock()
		observed[r.X]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	var units, launches []obs.SpanInfo
	for _, sp := range s.Tracer.Snapshot() {
		switch sp.Name {
		case "unit":
			units = append(units, sp)
		case "launch":
			launches = append(launches, sp)
		}
	}
	if len(units) != len(pts) {
		t.Fatalf("%d unit spans for %d points", len(units), len(pts))
	}
	if got := int64(len(launches)); got != s.KernelLaunches() {
		t.Errorf("%d launch spans for %d launches", got, s.KernelLaunches())
	}
	retried := false
	for i, r := range runs {
		if n := observed[r.X]; n != 1 {
			t.Errorf("point x=%g observed %d times, want 1", r.X, n)
		}
		name := pts[i].K.Name
		var unit []obs.SpanInfo
		for _, u := range units {
			if u.Args["kernel"] == name {
				unit = append(unit, u)
			}
		}
		if len(unit) != 1 {
			t.Fatalf("point %s has %d unit spans, want 1", name, len(unit))
		}
		u, held := unit[0], 0
		for _, l := range launches {
			if l.Args["kernel"] == name && l.TID == u.TID && l.StartUS >= u.StartUS && l.StartUS+l.DurUS <= u.StartUS+u.DurUS+1 {
				held++
			}
		}
		if held != r.Attempts {
			t.Errorf("point %s: unit span holds %d launch spans, run took %d attempts", name, held, r.Attempts)
		}
		retried = retried || r.Attempts > 1
	}
	if !retried {
		t.Fatal("no point needed a retry; seed no longer exercises the retry path")
	}
}

func TestSweepDeviceLostIsFatal(t *testing.T) {
	s := quickSuite()
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := runOn(s)(ratioSweep(s, 1))
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal ErrDeviceLost, got %v", err)
	}
}

func TestSweepNoPlanBitIdenticalToBaseline(t *testing.T) {
	// The determinism guard: arming the resilient machinery without a
	// fault plan must not perturb a single bit of the figures.
	base := quickSuite()
	fig1, _, err := runOn(base)(ratioSweep(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	armed := quickSuite()
	armed.Retries = 3
	armed.DeadlineCycles = 1 << 36
	fig2, _, err := runOn(armed)(ratioSweep(armed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fig1.CSV() != fig2.CSV() {
		t.Fatalf("resilience machinery changed results:\n%s\nvs\n%s", fig1.CSV(), fig2.CSV())
	}
}

// persistCounter reads one pipeline.persist counter from s's metrics.
func persistCounter(s *Suite, name string) int64 {
	return s.Metrics().Snapshot().Get("pipeline.persist." + name)
}

// The checkpoint tests below pin what a sweep's durable state guarantees
// now that the persistent tier (Suite.PersistDir) is the only store:
// rerunning over the same directory resumes, and a different sweep
// sharing the directory recomputes.

func TestCheckpointResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()

	// First run: one point times out, the other three complete and are
	// persisted — the surviving state of an interrupted campaign.
	s1 := quickSuite()
	s1.PersistDir = dir
	s1.DeadlineCycles = 1 << 20
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	_, runs1, err := runOn(s1)(ratioSweep(s1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := persistCounter(s1, "writes"), int64(len(runs1)-1); got != want {
		t.Fatalf("first run persisted %d points, want %d", got, want)
	}

	// Resume without the fault: only the failed point may recompute. The
	// watchdog budget is part of the tier's key, so the rerun keeps it.
	s2 := quickSuite()
	s2.PersistDir = dir
	s2.DeadlineCycles = s1.DeadlineCycles
	fig2, runs2, err := runOn(s2)(ratioSweep(s2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := persistCounter(s2, "misses"); got != 1 {
		t.Fatalf("resume computed %d points, want 1 (the failed point only)", got)
	}
	if got, want := persistCounter(s2, "hits"), int64(len(runs2)-1); got != want {
		t.Fatalf("resume served %d points from the tier, want %d", got, want)
	}
	for _, r := range runs2 {
		if r.Failed() {
			t.Fatalf("resumed sweep still has failures: %+v", r)
		}
	}

	// The resumed figure matches a clean unpersisted run bit for bit.
	clean := quickSuite()
	figClean, _, err := runOn(clean)(ratioSweep(clean, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Fatalf("resumed figure differs from clean run:\n%s\nvs\n%s", fig2.CSV(), figClean.CSV())
	}
}

func TestCheckpointInterruptedMidSweepResumes(t *testing.T) {
	dir := t.TempDir()

	// A lost device kills the first run mid-sweep — the tier keeps
	// whatever completed before the abort.
	s1 := quickSuite()
	s1.Workers = 1 // deterministic: points complete in order until the fatal one
	s1.PersistDir = dir
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := runOn(s1)(ratioSweep(s1, 1))
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal abort, got %v", err)
	}
	completed := persistCounter(s1, "writes")
	if completed == 0 {
		t.Fatal("nothing persisted before the abort")
	}

	s2 := quickSuite()
	s2.PersistDir = dir
	_, runs2, err := runOn(s2)(ratioSweep(s2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := persistCounter(s2, "hits"); got != completed {
		t.Fatalf("resume served %d points from the tier, want the %d persisted", got, completed)
	}
	if got, want := persistCounter(s2, "misses"), int64(len(runs2))-completed; got != want {
		t.Fatalf("resume computed %d points, want %d (total %d - persisted %d)",
			got, want, len(runs2), completed)
	}
}

func TestSweepSignatureKeysOnKernelBodyNotName(t *testing.T) {
	// Two kernels pinned to the same name but generated with different
	// bodies (8 vs 4 inputs) must not share a persisted result: the tier
	// keys on the compiled program's content, not the name.
	s := quickSuite()
	pa := kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1.0, Name: "same_name",
	}
	pb := pa
	pb.Inputs = 8
	ka, err := s.Pipeline().Generate(pipeline.GenALUFetch, pa)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := s.Pipeline().Generate(pipeline.GenALUFetch, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ka.Name != kb.Name {
		t.Fatalf("precondition broken: names differ (%q vs %q)", ka.Name, kb.Name)
	}
	ha, err := ka.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := kb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("precondition broken: kernel bodies identical")
	}
	card := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	dir := t.TempDir()
	run := func(k *il.Sealed) *Suite {
		t.Helper()
		s := quickSuite()
		s.PersistDir = dir
		kps := []KernelPoint{{Card: card, X: 1, K: k, W: 64, H: 64}}
		if _, err := s.RunKernelPoints(context.Background(), kps, SweepOptions{}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	run(ka)
	if got := persistCounter(run(kb), "hits"); got != 0 {
		t.Fatalf("a different kernel body under one name was served from the tier (hits = %d)", got)
	}
	// The same body again does hit, so the miss above is the key's doing.
	if got := persistCounter(run(ka), "hits"); got != 1 {
		t.Fatalf("rerunning the persisted kernel hit the tier %d times, want 1", got)
	}
}

func TestCheckpointRejectsSameNameDifferentKernelBody(t *testing.T) {
	dir := t.TempDir()

	s1 := quickSuite()
	s1.PersistDir = dir
	if _, _, err := runOn(s1)(ratioSweep(s1, 1)); err != nil {
		t.Fatal(err)
	}

	// The same sweep with half the inputs: every kernel keeps its name
	// (alufetch names encode only the ratio), x and domain, but the IL
	// bodies differ. Resuming from the first run's entries would splice
	// the 16-input timings into the 8-input figure.
	s2 := quickSuite()
	s2.PersistDir = dir
	runs2, err := s2.RunKernelPoints(context.Background(), aluFetchPoints(t, s2, 8), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := persistCounter(s2, "hits"); got != 0 {
		t.Fatalf("entries for a different kernel body were resumed: persist.hits = %d", got)
	}
	if got := persistCounter(s2, "misses"); got != int64(len(runs2)) {
		t.Fatalf("persist.misses = %d, want %d (every point recomputed)", got, len(runs2))
	}
}

// cancelAfter arms BeforeLaunch to cancel the returned context once the
// sweep has started its nth launch.
func cancelAfter(t *testing.T, s *Suite, n int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var seen atomic.Int64
	s.BeforeLaunch = func(KernelPoint, int) {
		if seen.Add(1) == n {
			cancel()
		}
	}
	return ctx
}

func TestInterruptedSweepResumesBitIdentical(t *testing.T) {
	// The resume contract: a faulted sweep interrupted mid-flight on a
	// multi-worker pool and rerun on a fresh suite over the same
	// PersistDir returns runs bit-identical to an uninterrupted sweep.
	// Finished launches come back from the persistent tier; faulted ones
	// bypass it and recompute, which is safe because every fault draw is
	// a pure function of the plan seed and the launch identity.
	faulted := func() *Suite {
		s := quickSuite()
		s.Workers = 2
		s.Retries = 8
		s.DeadlineCycles = 1 << 20
		s.Faults = &fault.Plan{Seed: 11, Specs: []fault.Spec{
			{Kind: fault.Transient, Prob: 0.5},
			{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
			{Kind: fault.Throttle, Prob: 1, Match: "alufetch_r1.00", Factor: 0.5},
		}}
		return s
	}

	ref := faulted()
	_, want, err := runOn(ref)(ratioSweep(ref, 2))
	if err != nil {
		t.Fatal(err)
	}
	retried, failed := false, false
	for _, r := range want {
		retried = retried || r.Attempts > 1
		failed = failed || r.Failed()
	}
	if !retried || !failed {
		t.Fatalf("reference exercised retries=%v failures=%v; the fault plan no longer covers both", retried, failed)
	}
	if n := ref.KernelLaunches(); n != 16 {
		t.Fatalf("reference took %d launches; the interrupt point below assumes 16", n)
	}

	dir := t.TempDir()
	victim := faulted()
	victim.PersistDir = dir
	// The reference takes 16 launches; by the tenth at least the first
	// clean point has persisted, and with two workers at most five
	// points have been dispatched.
	ctx := cancelAfter(t, victim, 10)
	spec, err := ratioSweep(victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.RunKernelPoints(ctx, spec.Points, SweepOptions{}); !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("want ErrSweepInterrupted, got %v", err)
	}
	if got := victim.Metrics().Snapshot().Get("core.sweep.interrupted"); got != 1 {
		t.Errorf("core.sweep.interrupted = %d, want 1", got)
	}

	resumed := faulted()
	resumed.PersistDir = dir
	_, got, err := runOn(resumed)(ratioSweep(resumed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed sweep returned %d runs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d: resumed %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
	snap := resumed.Metrics().Snapshot()
	if hits := snap.Get("pipeline.persist.hits"); hits == 0 {
		t.Error("resume served nothing from the persistent tier; the test is vacuous")
	}
	if misses := snap.Get("pipeline.persist.misses"); misses == 0 {
		t.Error("resume found every launch persisted; the interrupt landed after the sweep finished")
	}
}

func TestRunKernelPointsMatchesFigureSweep(t *testing.T) {
	// RunKernelPoints is the soak campaigns' entry; driving the same
	// kernels through it must reproduce the figure sweep's runs exactly.
	s := quickSuite()
	fig, runs, err := runOn(s)(ratioSweep(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	_ = fig

	s2 := quickSuite()
	runs2, err := s2.RunKernelPoints(context.Background(), aluFetchPoints(t, s2, 16), SweepOptions{})
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

// TestCancelDuringBackoffStopsRetrying cancels a sweep while its one
// point waits out a retry backoff: the point must not launch again, and
// it records neither a completion nor a failure.
func TestCancelDuringBackoffStopsRetrying(t *testing.T) {
	s := quickSuite()
	s.Retries = 3
	s.RetryBackoff = time.Hour
	s.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: fault.Transient, Prob: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var relaunched atomic.Bool
	s.BeforeLaunch = func(_ KernelPoint, attempt int) {
		if attempt == 0 {
			time.AfterFunc(50*time.Millisecond, cancel)
		} else {
			relaunched.Store(true)
		}
	}
	start := time.Now()
	_, err := s.RunKernelPoints(ctx, aluFetchPoints(t, s, 16)[:1], SweepOptions{})
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("want ErrSweepInterrupted, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled sweep returned after %v", d)
	}
	snap := s.Metrics().Snapshot()
	if n := snap.Get("core.sweep.retries"); n != 1 {
		t.Fatalf("core.sweep.retries = %d, want 1: the cancel did not land in the backoff", n)
	}
	if relaunched.Load() {
		t.Error("the point launched again after the sweep was cancelled")
	}
	if n := s.KernelLaunches(); n != 1 {
		t.Errorf("KernelLaunches = %d, want 1", n)
	}
	for _, name := range []string{"core.sweep.points.completed", "core.sweep.points.failed"} {
		if n := snap.Get(name); n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
}

// TestWarmRerunCompilesNothing reruns a small bundle of figures on a
// fresh suite over the persistent tier the first run filled. The tier
// is keyed on the source, so every launch is served from disk without a
// compile lookup, and the figures are byte-identical.
func TestWarmRerunCompilesNothing(t *testing.T) {
	dir := t.TempDir()
	bundle := func(s *Suite) string {
		t.Helper()
		var csv strings.Builder
		for _, plan := range []func() (FigureSpec, error){
			func() (FigureSpec, error) { return ratioSweep(s, 1) },
			func() (FigureSpec, error) {
				card := Card{Arch: device.RV870, Mode: il.Compute, Type: il.Float4}
				return clampTo(64)(keep(func(p KernelPoint) bool { return p.Card == card && p.X <= 4 })(s.ReadLatencySpec(il.TextureSpace)))
			},
		} {
			fig, _, err := runOn(s)(plan())
			if err != nil {
				t.Fatal(err)
			}
			csv.WriteString(fig.CSV())
		}
		return csv.String()
	}
	cold := quickSuite()
	cold.PersistDir = dir
	want := bundle(cold)
	if cold.Metrics().Snapshot().Get("pipeline.compile.misses") == 0 {
		t.Fatal("cold run compiled nothing; the check is vacuous")
	}

	warm := quickSuite()
	warm.PersistDir = dir
	warm.Tracer = obs.NewTracer()
	got := bundle(warm)
	spans := map[string]int{}
	for _, sp := range warm.Tracer.Snapshot() {
		spans[sp.Name]++
	}
	if spans["simulate"] == 0 || spans["compile"] != 0 {
		t.Errorf("warm rerun traced %d simulate and %d compile spans, want some and none", spans["simulate"], spans["compile"])
	}
	snap := warm.Metrics().Snapshot()
	if n := snap.Get("pipeline.compile.hits") + snap.Get("pipeline.compile.misses"); n != 0 {
		t.Errorf("warm rerun made %d compile lookups, want 0", n)
	}
	if m := snap.Get("pipeline.persist.misses"); m != 0 {
		t.Errorf("warm rerun missed the tier %d times, want 0", m)
	}
	if got != want {
		t.Errorf("warm rerun CSV differs from the cold run:\n%s\nvs\n%s", got, want)
	}
}

// TestCompileFailureFailsBeforeLaunch pins how a point whose kernel does
// not compile fails: the sweep stops with the compiler's error, and
// neither the suite nor the cal layer counts a launch.
func TestCompileFailureFailsBeforeLaunch(t *testing.T) {
	compute, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 2, Outputs: 1,
		OutSpace: il.GlobalSpace, ALUFetchRatio: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	invalid := &il.Kernel{Name: "no_outputs", Mode: il.Pixel, Type: il.Float, NumInputs: 2}
	for _, c := range []struct {
		name string
		p    KernelPoint
		want string
	}{
		{"compute_on_rv670", KernelPoint{
			Card: Card{Arch: device.RV670, Mode: il.Compute, Type: il.Float}, X: 1, K: il.Seal(compute), W: 64, H: 64,
		}, "core: 3870 Compute Float at x=1: cal: ilc: RV670 does not support compute shader mode"},
		{"invalid_il", KernelPoint{
			Card: Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}, X: 2, K: il.Seal(invalid), W: 64, H: 64,
		}, `core: 4870 Pixel Float at x=2: cal: ilc: il: kernel "no_outputs": needs at least one output and non-negative inputs`},
		// A point with a series label is named by it, not by its card.
		{"invalid_il_in_series", KernelPoint{
			Card: Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}, X: 1, Series: "burst writes", K: il.Seal(invalid), W: 64, H: 64,
		}, `core: burst writes at x=1: cal: ilc: il: kernel "no_outputs": needs at least one output and non-negative inputs`},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := quickSuite()
			s.PersistDir = t.TempDir()
			_, err := s.RunKernelPoints(context.Background(), []KernelPoint{c.p}, SweepOptions{})
			if err == nil || err.Error() != c.want {
				t.Fatalf("sweep error = %v, want %q", err, c.want)
			}
			if n := s.KernelLaunches(); n != 0 {
				t.Errorf("KernelLaunches = %d, want 0", n)
			}
			if n := s.Metrics().Snapshot().Get("cal.launches"); n != 0 {
				t.Errorf("cal.launches = %d, want 0", n)
			}
		})
	}
}

// TestInvalidDeviceFailsBeforeLaunch: a point whose custom device fails
// validation fails the whole sweep with the cal layer's validation error
// before any point launches, even one on a valid card.
func TestInvalidDeviceFailsBeforeLaunch(t *testing.T) {
	s := quickSuite()
	kps := aluFetchPoints(t, s, 16)
	bad := device.Lookup(device.RV770)
	bad.L1Ways = 3 // 3 ways do not tile the 16 KiB L1
	verr := bad.Validate()
	if verr == nil {
		t.Fatal("spec with 3 L1 ways validated")
	}
	kps[len(kps)-1].Device = &bad
	_, err := s.RunKernelPoints(context.Background(), kps, SweepOptions{})
	if want := "cal: " + verr.Error(); err == nil || err.Error() != want {
		t.Fatalf("sweep error = %v, want %q", err, want)
	}
	if n := s.KernelLaunches(); n != 0 {
		t.Errorf("KernelLaunches = %d, want 0", n)
	}
}
