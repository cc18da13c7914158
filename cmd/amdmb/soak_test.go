package main

// Soak subcommand smoke tests, driving run() like main does. The
// -torture path spawns child processes of the real binary and is
// covered by the CI soak-smoke job plus internal/soak's re-exec test,
// not here (the test binary is not amdmb).

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amdgpubench/internal/il"
	"amdgpubench/internal/soak"
)

func TestSoakCampaignSmoke(t *testing.T) {
	code, out, stderr := runCLI(t, "soak",
		"-seed", "7", "-steps", "2", "-kernels", "2",
		"-faults", "seed=5;transient:prob=0.2", "-kill-every", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, stderr, out)
	}
	for _, want := range []string{"step 0 sweep", "step 1 killresume", "violations=0", "kills=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("soak output missing %q:\n%s", want, out)
		}
	}
}

func TestSoakReproducibleAcrossInvocations(t *testing.T) {
	args := []string{"soak", "-seed", "11", "-steps", "2", "-kernels", "2",
		"-faults", "seed=5;transient:prob=0.3;hang:prob=0.1"}
	codeA, outA, _ := runCLI(t, args...)
	codeB, outB, _ := runCLI(t, args...)
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d, %d", codeA, codeB)
	}
	if outA != outB {
		t.Errorf("same seed, different stdout:\n a: %s\n b: %s", outA, outB)
	}
}

func TestSoakPlanMode(t *testing.T) {
	code, out, stderr := runCLI(t, "soak", "-seed", "42", "-plan", "2", "-kernels", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "step 0 sweep") || !strings.Contains(out, "point 2 ") {
		t.Errorf("plan output:\n%s", out)
	}
	if strings.Contains(out, "soak: seed=") {
		t.Error("-plan ran the campaign")
	}
}

func TestSoakUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"soak", "-faults", "frobnicate"},
		{"soak", "-nonsense"},
		{"soak", "stray-arg"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("amdmb %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestSoakViolationExitCodeAndReplay exercises the violation path the
// way CI consumes it: a campaign with a (library-injected) failing
// oracle must exit 4, name the bundle on stdout, and the bundle must
// replay through `amdmb soak -replay`.
func TestSoakViolationExitCodeAndReplay(t *testing.T) {
	bundles := t.TempDir()
	// The CLI has no flag to inject a broken oracle (by design); build
	// the bundle through the library and drive only -replay through the
	// CLI surface.
	rep, err := soak.Run(soak.Config{
		Seed: 21, Steps: 1, KernelsPerStep: 2, Workers: 1,
		BundleDir: bundles, FailFast: true,
		TestOracle: func(k *il.Kernel) error {
			if k.Counts().Fetch > 0 {
				return errors.New("planted")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || len(rep.Bundles) == 0 {
		t.Fatalf("campaign produced no bundle: %+v", rep)
	}
	bundle := rep.Bundles[0]

	// An injected-oracle bundle cannot be replayed without the oracle:
	// the CLI reports that as an infrastructure error, not success.
	code, _, stderr := runCLI(t, "soak", "-replay", bundle)
	if code != 1 || !strings.Contains(stderr, "TestOracle") {
		t.Errorf("replay of injected bundle: exit %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "soak", "-replay", filepath.Join(bundles, "no-such")); code != 1 {
		t.Errorf("replay of missing bundle: exit %d, stderr %s", code, stderr)
	}

	// The bundle directory itself must be complete.
	for _, f := range []string{"bundle.json", "kernel.il", "README.md"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
}
