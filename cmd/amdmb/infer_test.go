package main

import (
	"strings"
	"testing"
)

// TestInferCmdAllArchsMatch is the CLI form of the suite's self-proof:
// `amdmb infer` over every built-in device must recover the cache model
// with zero mismatches and exit 0.
func TestInferCmdAllArchsMatch(t *testing.T) {
	code, out, stderr := runCLI(t, "infer", "-iters", "50")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, stderr, out)
	}
	for _, want := range []string{"HD 3870", "HD 4870", "HD 5870"} {
		if !strings.Contains(out, want) {
			t.Errorf("infer output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("infer reported a mismatch:\n%s", out)
	}
	if got := strings.Count(out, "match"); got < 18 { // 6 params x 3 devices
		t.Errorf("infer printed %d match verdicts, want >= 18:\n%s", got, out)
	}
}

func TestInferCmdCSV(t *testing.T) {
	code, out, stderr := runCLI(t, "infer", "-iters", "50", "-archs", "rv770", "-csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 { // header + 6 parameters
		t.Fatalf("CSV has %d lines, want 7:\n%s", len(lines), out)
	}
	if lines[0] != "arch,param,inferred,truth,ok" {
		t.Errorf("CSV header %q", lines[0])
	}
	if lines[1] != "RV770,l1-bytes,16384,16384,true" {
		t.Errorf("first row %q", lines[1])
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, ",true") {
			t.Errorf("row records a mismatch: %q", l)
		}
	}
}

func TestInferCmdUsageErrors(t *testing.T) {
	if code, _, stderr := runCLI(t, "infer", "-archs", "r600"); code != 2 || !strings.Contains(stderr, "unknown arch") {
		t.Errorf("bad arch: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runCLI(t, "infer", "stray"); code != 2 {
		t.Errorf("stray argument accepted")
	}
	if code, _, _ := runCLI(t, "infer", "-archs", " , "); code != 2 {
		t.Errorf("empty arch list accepted")
	}
	if code, out, stderr := runCLI(t, "infer", "-iters", "-1", "-archs", "rv770"); code != 2 || out != "" || !strings.Contains(stderr, "-iters must not be negative") {
		t.Errorf("negative -iters: exit %d, stdout %d bytes, stderr %q; want a usage error", code, len(out), stderr)
	}
}
