package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"amdgpubench/internal/core"
)

// The crash-torture test re-executes its own test binary as the victim:
// TestMain diverts into tortureChild when the marker env var is set, so
// the child is a real OS process running a real checkpointed sweep that
// a real SIGKILL lands on — no in-process simulation of "crash".

const (
	childEnvMarker     = "AMDMB_SOAK_TORTURE_CHILD"
	childEnvCheckpoint = "AMDMB_SOAK_CHILD_CHECKPOINT"
	childEnvOut        = "AMDMB_SOAK_CHILD_OUT"
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

// tortureChild runs the fixed sweep against the inherited checkpoint
// and writes the runs as JSON. It slows each launch a little so the
// parent's progress poll always catches a mid-sweep instant to kill.
func tortureChild() int {
	s := core.NewSuite()
	s.Iterations = 1
	s.Workers = 2
	s.Retries = 2
	s.DeadlineCycles = 1 << 22
	s.Checkpoint = os.Getenv(childEnvCheckpoint)
	// Save per point: the parent observes progress through checkpoint
	// growth, and every save is another instant for a kill to tear. The
	// default debounce would batch 8 points per write — fewer kill
	// windows, and the last batch can land so close to exit that the
	// final cycle's kill misses the child entirely.
	s.CheckpointFlushEvery = 1
	s.BeforeLaunch = func() { time.Sleep(3 * time.Millisecond) }
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
// consecutive SIGKILL/resume cycles, zero quarantined checkpoints, and
// the survivor's results bit-identical to an uninterrupted run.
func TestTortureSurvivesRepeatedSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	ck := dir + "/torture.ckpt"
	out := dir + "/tortured.json"

	child := func(cycle int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			childEnvMarker+"=1",
			childEnvCheckpoint+"="+ck,
			childEnvOut+"="+out,
		)
		cmd.Stderr = os.Stderr
		return cmd
	}

	var log bytes.Buffer
	res, err := Torture(TortureConfig{
		NewChild:   child,
		Checkpoint: ck,
		Cycles:     3,
		Poll:       time.Millisecond,
		Timeout:    90 * time.Second,
		Out:        &log,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if res.Kills != 3 {
		t.Errorf("landed %d kills, want 3 (%d clean exits)\n%s", res.Kills, res.CleanExits, log.String())
	}
	if res.Quarantined != 0 {
		t.Errorf("%d checkpoints quarantined after SIGKILL torture; the atomic save protocol tore", res.Quarantined)
	}
	if res.Restored == 0 {
		t.Error("final run restored nothing: the kills never preserved progress")
	}

	tortured, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference: same sweep, fresh checkpoint, no kills.
	refOut := dir + "/reference.json"
	refCmd := exec.Command(os.Args[0])
	refCmd.Env = append(os.Environ(),
		childEnvMarker+"=1",
		childEnvCheckpoint+"="+dir+"/reference.ckpt",
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

func TestCheckpointRecordsCounts(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ck.json"
	if n := checkpointRecords(path); n != 0 {
		t.Fatalf("missing file counted %d records", n)
	}
	if err := os.WriteFile(path, []byte(`{"signature":"x","runs":{"0":{},"1":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := checkpointRecords(path); n != 2 {
		t.Fatalf("counted %d records, want 2", n)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := checkpointRecords(path); n != 0 {
		t.Fatalf("torn file counted %d records", n)
	}
}
