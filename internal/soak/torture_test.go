package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"amdgpubench/internal/core"
)

// The crash-torture test re-executes its own test binary as the victim:
// TestMain diverts into tortureChild when the marker env var is set, so
// the child is a real OS process running a real persisted sweep that a
// real SIGKILL lands on — no in-process simulation of "crash".

const (
	childEnvMarker   = "AMDMB_SOAK_TORTURE_CHILD"
	childEnvCacheDir = "AMDMB_SOAK_CHILD_CACHE_DIR"
	childEnvOut      = "AMDMB_SOAK_CHILD_OUT"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnvMarker) == "1" {
		os.Exit(tortureChild())
	}
	os.Exit(m.Run())
}

// childPoints is the sweep every torture child runs: one campaign
// step's worth of seeded kernels, wide enough (24 points) that three
// kills always land mid-sweep.
func childPoints() []core.KernelPoint {
	cfg := Config{Seed: 1234, KernelsPerStep: 24, MaxDomain: 48}.withDefaults()
	return planStep(cfg, 0).points
}

// tortureChild runs the fixed sweep over the inherited cache dir and
// writes the runs as JSON. It slows each launch a little so the
// parent's progress poll always catches a mid-sweep instant to kill.
func tortureChild() int {
	s := core.NewSuite()
	s.Iterations = 1
	s.Workers = 2
	s.Retries = 2
	s.DeadlineCycles = 1 << 22
	s.PersistDir = os.Getenv(childEnvCacheDir)
	s.BeforeLaunch = func(core.KernelPoint, int) { time.Sleep(3 * time.Millisecond) }
	runs, err := s.RunKernelPoints(context.Background(), childPoints(), core.SweepOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(os.Getenv(childEnvOut), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestTortureSurvivesRepeatedSIGKILL is the acceptance criterion: three
// consecutive SIGKILL/resume cycles, zero torn cache entries, and the
// survivor's results bit-identical to an uninterrupted run.
func TestTortureSurvivesRepeatedSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	cache := dir + "/cache"
	out := dir + "/tortured.json"

	child := func(cycle int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			childEnvMarker+"=1",
			childEnvCacheDir+"="+cache,
			childEnvOut+"="+out,
		)
		cmd.Stderr = os.Stderr
		return cmd
	}

	var log bytes.Buffer
	res, err := Torture(TortureConfig{
		NewChild: child,
		CacheDir: cache,
		Cycles:   3,
		Poll:     time.Millisecond,
		Timeout:  90 * time.Second,
		Out:      &log,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if res.Kills != 3 {
		t.Errorf("landed %d kills, want 3 (%d clean exits)\n%s", res.Kills, res.CleanExits, log.String())
	}
	if res.Torn != 0 {
		t.Errorf("%d torn cache entries after SIGKILL torture; the atomic write protocol tore", res.Torn)
	}
	if res.Entries == 0 {
		t.Error("final run found nothing persisted: the kills never preserved progress")
	}

	tortured, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference: same sweep, fresh cache dir, no kills.
	refOut := dir + "/reference.json"
	refCmd := exec.Command(os.Args[0])
	refCmd.Env = append(os.Environ(),
		childEnvMarker+"=1",
		childEnvCacheDir+"="+dir+"/reference-cache",
		childEnvOut+"="+refOut,
	)
	refCmd.Stderr = os.Stderr
	if err := refCmd.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	reference, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tortured, reference) {
		t.Errorf("tortured results differ from uninterrupted reference\n tortured:  %d bytes\n reference: %d bytes",
			len(tortured), len(reference))
	}
}

func TestTortureConfigValidation(t *testing.T) {
	if _, err := Torture(TortureConfig{}); err == nil {
		t.Fatal("empty torture config accepted")
	}
}

func TestCacheEntriesCountsAndTorn(t *testing.T) {
	dir := t.TempDir()
	if n := len(cacheEntries(dir)); n != 0 {
		t.Fatalf("empty dir counted %d entries", n)
	}
	shard := filepath.Join(dir, "simulate", "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"ab01.json":            `{"Seconds":1}`,
		"ab02.json":            "{torn",
		"ab03.json.tmp-123456": "{half", // an in-flight write: never an entry
	} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cacheEntries(dir)); n != 2 {
		t.Fatalf("counted %d entries, want 2 (temps excluded)", n)
	}
	if n := countTorn(dir); n != 1 {
		t.Fatalf("counted %d torn entries, want 1", n)
	}
}
