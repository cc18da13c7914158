package soak

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"amdgpubench/internal/core"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
)

// smokeConfig is a campaign small enough for unit tests but with every
// adversity armed: faults, kill/resume.
func smokeConfig(t *testing.T) Config {
	plan, err := fault.Parse("seed=5;transient:prob=0.2;hang:prob=0.05")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Seed:           11,
		Steps:          3,
		KernelsPerStep: 3,
		Faults:         plan,
		KillEvery:      2,
		Workers:        2,
		Trace:          true,
		MaxDomain:      48,
	}
}

func TestCampaignHoldsAllOracles(t *testing.T) {
	cfg := smokeConfig(t)
	var out bytes.Buffer
	cfg.Out = &out
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Steps != cfg.Steps {
		t.Errorf("ran %d steps, want %d", rep.Steps, cfg.Steps)
	}
	if want := cfg.Steps * cfg.KernelsPerStep; rep.Points != want {
		t.Errorf("swept %d points, want %d", rep.Points, want)
	}
	if rep.Kills == 0 {
		t.Error("no kill/resume cycle interrupted a sweep")
	}
	if rep.Launches == 0 {
		t.Error("campaign suite issued no launches")
	}
	for i := 0; i < cfg.Steps; i++ {
		if !strings.Contains(out.String(), fmt.Sprintf("step %d ", i)) {
			t.Errorf("progress output missing step %d:\n%s", i, out.String())
		}
	}
}

// TestCampaignReproducible is the acceptance criterion: the same seed
// is the same campaign — same points, same failures, same launch count,
// same (absent) violations — under faults and kills.
func TestCampaignReproducible(t *testing.T) {
	cfg := smokeConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed is wall-clock shaped; everything else must match bit for
	// bit.
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different campaigns:\n a: %+v\n b: %+v", a, b)
	}
}

func TestCampaignDurationBound(t *testing.T) {
	cfg := Config{Seed: 3, Duration: time.Nanosecond, KernelsPerStep: 1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 0 {
		t.Fatalf("an expired duration still ran %d steps", rep.Steps)
	}
}

// TestInjectedViolationShrinksToBundle drives the whole failure path:
// a planted oracle violation must come out as a shrunk kernel in a
// replayable repro bundle.
func TestInjectedViolationShrinksToBundle(t *testing.T) {
	bundles := t.TempDir()
	cfg := Config{
		Seed:           21,
		Steps:          1,
		KernelsPerStep: 2,
		Workers:        1,
		BundleDir:      bundles,
		FailFast:       true,
		// Any kernel that fetches is "broken": shrinking can strip the
		// ALU and store freight but must keep a fetch, so the minimized
		// kernel stays small and still trips the oracle.
		TestOracle: func(k *il.Kernel) error {
			if k.Counts().Fetch > 0 {
				return errors.New("planted: kernel fetches")
			}
			return nil
		},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("planted violation not caught")
	}
	var v Violation
	for _, got := range rep.Violations {
		if got.Oracle == OracleInjected {
			v = got
		}
	}
	if v.Oracle == "" {
		t.Fatalf("no injected violation in %+v", rep.Violations)
	}
	if v.Kernel == nil || v.Bundle == "" {
		t.Fatalf("violation missing kernel or bundle: %+v", v)
	}
	if v.ShrunkFrom < len(v.Kernel.Code) {
		t.Errorf("shrunk kernel grew: %d -> %d instructions", v.ShrunkFrom, len(v.Kernel.Code))
	}
	if err := v.Kernel.Validate(); err != nil {
		t.Errorf("shrunk kernel invalid: %v", err)
	}
	if cfg.TestOracle(v.Kernel) == nil {
		t.Error("shrunk kernel no longer trips the oracle")
	}

	// The bundle must load, carry the kernel, and replay to the same
	// failure with the oracle armed — and to success without it.
	b, k, err := LoadBundle(v.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if b.Oracle != OracleInjected || b.Seed != cfg.Seed || k == nil {
		t.Fatalf("bundle metadata: %+v kernel=%v", b, k)
	}
	if sumA, sumB := k.Hash(), v.Kernel.Hash(); sumA != sumB {
		t.Error("bundle kernel is not the shrunk kernel")
	}
	err = ReplayBundle(v.Bundle, Config{TestOracle: cfg.TestOracle})
	if err == nil || !strings.Contains(err.Error(), "still reproduces") {
		t.Errorf("replay with the oracle armed: %v, want still-reproduces", err)
	}
	if err := ReplayBundle(v.Bundle, Config{TestOracle: func(*il.Kernel) error { return nil }}); err != nil {
		t.Errorf("replay with a fixed oracle: %v, want nil", err)
	}
	for _, f := range []string{"bundle.json", "kernel.il", "README.md"} {
		if _, err := os.Stat(filepath.Join(v.Bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
}

func TestFailFastStopsCampaign(t *testing.T) {
	cfg := Config{
		Seed: 4, Steps: 5, KernelsPerStep: 1, Workers: 1, FailFast: true,
		TestOracle: func(*il.Kernel) error { return errors.New("always") },
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 1 {
		t.Fatalf("fail-fast campaign ran %d steps, want 1", rep.Steps)
	}
}

// TestKillResumeIsDeterministicallyInterrupted pins the in-process
// crash cycle: with serial workers the interrupt ordinal is exact, the
// sweep must come back ErrSweepInterrupted inside runKillResume, and
// the resumed results must pass the checkpoint-identity oracle.
func TestKillResumeEveryStep(t *testing.T) {
	cfg := Config{Seed: 17, Steps: 2, KernelsPerStep: 3, KillEvery: 1, Workers: 1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kills != cfg.Steps {
		t.Errorf("%d kills across %d killresume steps", rep.Kills, cfg.Steps)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Points != cfg.Steps*cfg.KernelsPerStep {
		t.Errorf("resumed sweeps returned %d points, want %d", rep.Points, cfg.Steps*cfg.KernelsPerStep)
	}
}

// TestMetricsOracleCatchesSkew plants a skew between the campaign's
// bookkeeping and the suite's counters and demands the metrics oracle
// notice: the oracle guards real accounting, not tautologies.
func TestMetricsOracleCatchesSkew(t *testing.T) {
	cfg := Config{Seed: 8, Steps: 1, KernelsPerStep: 2, Workers: 1}.withDefaults()
	c := &campaign{cfg: cfg, suite: newSuite(cfg), report: &Report{Seed: cfg.Seed}}
	st := planStep(cfg, 0)
	runs, err := c.suite.RunKernelPoints(context.Background(), st.points, core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.sweptPoints = int64(len(runs)) + 1 // the lie
	c.checkMetrics(st)
	if len(c.report.Violations) == 0 {
		t.Fatal("metrics oracle blessed skewed accounting")
	}
	if c.report.Violations[0].Oracle != OracleMetrics {
		t.Fatalf("violation: %+v", c.report.Violations[0])
	}
}
