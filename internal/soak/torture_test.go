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
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
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
		t.Errorf("%d torn cache records after SIGKILL torture; the append protocol tore", res.Torn)
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
	if n := records(dir); n != 0 {
		t.Fatalf("empty dir counted %d records", n)
	}
	p := pipeline.New(pipeline.Options{PersistDir: dir})
	for ratio := 1; ratio <= 3; ratio++ {
		k, err := p.Generate(pipeline.GenALUFetch, kerngen.Params{
			Mode: il.Pixel, Type: il.Float, Inputs: 2, Outputs: 1, ALUFetchRatio: float64(ratio),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Simulate(obs.Span{}, k, ilc.Options{}, sim.Config{
			Spec: device.Lookup(device.RV770), Order: raster.PixelOrder(), W: 16, H: 16, Iterations: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := records(dir); n != 3 {
		t.Fatalf("counted %d records, want 3", n)
	}

	// One writer, one segment of three equal records: damage the middle
	// one, and leave half a record at the end, as a kill mid-write does.
	segs, err := filepath.Glob(filepath.Join(dir, "simulate", "*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want 1", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	rec := len(data) / 3
	data[rec+rec/2] ^= 1
	data = append(data, data[:rec/2]...)
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := records(dir); n != 2 {
		t.Fatalf("counted %d records, want 2 (the damaged one excluded)", n)
	}
	if n := pipeline.ScanPersistDir(dir).Torn; n != 1 {
		t.Fatalf("counted %d torn records, want 1 (a torn tail is not one)", n)
	}
}
