package main

// End-to-end smoke tests: the CLI was the only untested layer. Every
// test drives run() exactly as main does, capturing both streams.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestTable1(t *testing.T) {
	code, out, stderr := runCLI(t, "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"Table I", "RV770", "1600", "DDR5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Disassembly(t *testing.T) {
	code, out, stderr := runCLI(t, "fig2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"TEX:", "EXP_DONE", "GPRs=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ASCII(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "ALU:Fetch Ratio for 16 Inputs") {
		t.Errorf("fig7 plot missing title:\n%.400s", out)
	}
}

func TestFig7CSV(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-csv", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 33 { // header comment + column header + 32 ratio rows
		t.Fatalf("fig7 CSV has %d lines, want >= 33:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "ALU:Fetch Ratio,") ||
		!strings.Contains(lines[1], "4870 Pixel Float4") {
		t.Errorf("CSV header: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0.25,") {
		t.Errorf("first data row: %q", lines[2])
	}
}

func TestRunsTable(t *testing.T) {
	code, out, _ := runCLI(t, "-iters", "1", "-runs", "fig13")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "bottleneck") || !strings.Contains(out, "memory") {
		t.Errorf("-runs detail table missing:\n%.400s", out)
	}
}

func TestUsageAndUnknownExperiment(t *testing.T) {
	if code, _, stderr := runCLI(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no-args: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "fig99"); code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: exit %d, stderr %q", code, stderr)
	}
}

func TestBadFaultPlanRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-faults", "frobnicate", "fig13")
	if code != 2 || !strings.Contains(stderr, "unknown fault kind") {
		t.Errorf("bad plan: exit %d, stderr %q", code, stderr)
	}
}

func TestInjectedHangProducesFailureSummary(t *testing.T) {
	code, out, stderr := runCLI(t,
		"-iters", "1", "-timeout", "1048576",
		"-faults", "hang:prob=1,match=writelat_o3",
		"fig13")
	if code != 3 {
		t.Fatalf("exit %d, want 3 (completed with recorded failures); stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "Failure summary") || !strings.Contains(out, "kernel timeout") {
		t.Errorf("failure summary missing:\n%s", out)
	}
	if !strings.Contains(stderr, "failed and were recorded") {
		t.Errorf("stderr lacks failure note: %q", stderr)
	}
}

func TestCheckpointResumeEndToEnd(t *testing.T) {
	// Resume is a rerun over the same -cache-dir.
	cache := filepath.Join(t.TempDir(), "cache")
	// First run records a timeout failure; completed points persist.
	code, _, stderr := runCLI(t,
		"-iters", "1", "-timeout", "1048576", "-cache-dir", cache,
		"-faults", "hang:prob=1,match=writelat_o3",
		"fig13")
	if code != 3 {
		t.Fatalf("first run exit %d, stderr: %s", code, stderr)
	}
	// Re-run without faults resumes and fills in the failed points.
	code, out, stderr := runCLI(t, "-iters", "1", "-cache-dir", cache, "fig13")
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, stderr)
	}
	if strings.Contains(out, "Failure summary") {
		t.Errorf("resume still reports failures:\n%s", out)
	}
	// The resumed figure is identical to a clean run's, and now comes
	// entirely from disk.
	_, clean, _ := runCLI(t, "-iters", "1", "-csv", "fig13")
	_, resumed, _ := runCLI(t, "-iters", "1", "-csv", "-cache-dir", cache, "-metrics", "fig13")
	resumed, metrics := cutMetrics(t, resumed)
	requireAllPersisted(t, metrics)
	if clean != resumed {
		t.Errorf("resumed CSV differs from clean run:\n%s\nvs\n%s", resumed, clean)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	code, _, stderr := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "-iters", "1", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// A CPU profile sink that cannot be created is a usage error.
	code, _, stderr = runCLI(t, "-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof"), "fig13")
	if code != 2 || !strings.Contains(stderr, "cpuprofile") {
		t.Errorf("bad -cpuprofile path: exit %d, stderr %q", code, stderr)
	}
}

func TestWriteFigureFiles(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-iters", "1", "-o", dir, "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, f := range []string{"fig13.csv", "fig13.gp"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestTraceFlagWritesNestedSpans(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI(t, "-iters", "1", "-trace", tracePath, "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("-trace output is not valid trace_event JSON: %v", err)
	}
	type span struct {
		ts, dur float64
		tid     int
	}
	byName := map[string][]span{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		byName[e.Name] = append(byName[e.Name], span{ts: e.TS, dur: e.Dur, tid: e.TID})
	}
	if len(byName["launch"]) == 0 {
		t.Fatal("trace has no launch spans")
	}
	// Every pipeline stage must appear and nest inside its parent on the
	// same track: a launch inside its point's unit, simulate inside a
	// launch, and the miss-path stages — compile, trace, replay — inside a
	// simulate span.
	for stage, parent := range map[string]string{
		"launch": "unit", "simulate": "launch", "compile": "simulate", "trace": "simulate", "replay": "simulate",
	} {
		spans := byName[stage]
		if len(spans) == 0 {
			t.Errorf("trace has no %q spans", stage)
			continue
		}
		for _, s := range spans {
			nested := false
			for _, l := range byName[parent] {
				if s.tid == l.tid && s.ts >= l.ts && s.ts+s.dur <= l.ts+l.dur+1 {
					nested = true
					break
				}
			}
			if !nested {
				t.Errorf("%q span at ts=%f (tid %d) is not nested in any %s span", stage, s.ts, s.tid, parent)
				break
			}
		}
	}
	if len(byName["generate"]) == 0 {
		t.Error("trace has no generate spans")
	}
}

func TestMetricsFlagReportsCacheAndSweepCounters(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-metrics", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"pipeline.compile.hits", "pipeline.simulate.misses",
		"core.sweep.points.completed", "cal.launches",
		"pipeline.compile.compute_latency_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestProgressFlagRendersOnStderr(t *testing.T) {
	code, _, stderr := runCLI(t, "-iters", "1", "-progress", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"points", "(100%)", "cache hit"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-progress stderr missing %q: %q", want, stderr)
		}
	}
}

// TestCampaignProgressMatchesMain: both commands run their figures as one
// campaign, so `campaign -progress` ends on the same line as the main
// command's.
func TestCampaignProgressMatchesMain(t *testing.T) {
	final := func(args ...string) string {
		t.Helper()
		code, _, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
		}
		i := strings.LastIndex(stderr, "\rsweep: ")
		if i < 0 {
			t.Fatalf("%v: no progress line on stderr: %q", args, stderr)
		}
		line, _, _ := strings.Cut(stderr[i+1:], "\n")
		return line
	}
	main := final("-iters", "1", "-progress", "fig13")
	camp := final("campaign", "-iters", "1", "-progress", "-figs", "fig13")
	if !strings.HasPrefix(main, "sweep: 48/48 points (100%), cache hit ") {
		t.Errorf("final progress line %q", main)
	}
	if camp != main {
		t.Errorf("campaign -progress ends on %q, main command on %q", camp, main)
	}
}

func TestMaxDomainClampsSweeps(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-csv", "-max-domain", "16", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// Clamped run keeps the sweep's shape (same rows) with smaller domains.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 33 {
		t.Fatalf("clamped fig7 CSV has %d lines, want >= 33:\n%s", len(lines), out)
	}
	// A clamped domain must not resume full-domain results: over the
	// same -cache-dir it computes, and matches a clamped run without one.
	cache := filepath.Join(t.TempDir(), "cache")
	if code, _, stderr := runCLI(t, "-iters", "1", "-cache-dir", cache, "fig13"); code != 0 {
		t.Fatalf("full-domain run exit %d, stderr: %s", code, stderr)
	}
	code, clamped, stderr := runCLI(t, "-iters", "1", "-csv", "-cache-dir", cache, "-max-domain", "16", "-metrics", "fig13")
	if code != 0 {
		t.Fatalf("clamped run exit %d, stderr: %s", code, stderr)
	}
	clamped, metrics := cutMetrics(t, clamped)
	if !regexp.MustCompile(`(?m)^pipeline\.persist\.hits +0$`).MatchString(metrics) {
		t.Errorf("clamped run served full-domain results from the cache:\n%s", metrics)
	}
	if _, fresh, _ := runCLI(t, "-iters", "1", "-csv", "-max-domain", "16", "fig13"); clamped != fresh {
		t.Errorf("clamped run over a full-domain cache differs from a fresh clamped run")
	}
}

// TestNegativeCountsAreUsageErrors: a negative -iters or -max-domain
// is rejected before anything runs, by the main command and the
// campaign subcommand alike.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-iters", "-1", "-csv", "-max-domain", "16", "fig13"},
		{"-iters", "1", "-max-domain", "-4", "fig13"},
		{"campaign", "-figs", "fig13", "-iters", "-1", "-max-domain", "16"},
		{"campaign", "-figs", "fig13", "-max-domain", "-4", "-plan"},
	} {
		code, out, stderr := runCLI(t, args...)
		if code != 2 || out != "" || !strings.Contains(stderr, "must not be negative") {
			t.Errorf("%q: exit %d, stdout %d bytes, stderr %q; want a usage error", args, code, len(out), stderr)
		}
	}
}

// metricsCounters decodes the counters of the -metrics-json object in a
// run's stdout; figures print before it and a failure table after it.
func metricsCounters(t *testing.T, out string) map[string]int64 {
	t.Helper()
	idx := strings.Index(out, "\n{")
	if idx < 0 {
		t.Fatalf("no metrics JSON in output:\n%s", out)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(strings.NewReader(out[idx:])).Decode(&snap); err != nil {
		t.Fatalf("-metrics-json output is not valid JSON: %v", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	return counters
}

// TestMainRunsEachFigureOnce: summary reads fig13 and fig14 (and the
// ablation figure), and fig13 is printed as well. One invocation plans
// them as one campaign, so every point launches once, and each hung
// writelat_o3 point (6 in fig13, 10 in fig14) is one failure row.
func TestMainRunsEachFigureOnce(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-max-domain", "16", "-timeout", "1048576",
		"-faults", "hang:prob=1,match=writelat_o3", "-metrics-json", "fig13", "summary")
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
	}
	table := out[strings.Index(out, "Failure summary"):]
	perLabel := map[string]int{}
	for _, line := range strings.Split(table, "\n") {
		if strings.Contains(line, "kernel timeout") {
			perLabel[strings.Join(strings.Fields(line)[:3], " ")]++
		}
	}
	rows := 0
	for label, n := range perLabel {
		rows += n
		// Pixel cards plot in both figures, compute cards in fig14 only.
		if want := map[bool]int{true: 2, false: 1}[strings.Contains(label, "Pixel")]; n != want {
			t.Errorf("%s listed %d times, want %d", label, n, want)
		}
	}
	if rows != 16 {
		t.Errorf("%d failure rows, want 16:\n%s", rows, table)
	}
	c := metricsCounters(t, out)
	done := c["core.sweep.points.completed"] + c["core.sweep.points.failed"]
	if c["cal.launches"] != c["campaign.units.planned"] || done != c["cal.launches"] || done != 1148 {
		t.Errorf("cal.launches %d, campaign.units.planned %d, completed+failed %d; want all 1148",
			c["cal.launches"], c["campaign.units.planned"], done)
	}
}

func TestNoCacheFlagMatchesCachedOutput(t *testing.T) {
	codeA, cached, stderr := runCLI(t, "-csv", "-iters", "1", "fig7")
	if codeA != 0 {
		t.Fatalf("cached run: exit %d, stderr: %s", codeA, stderr)
	}
	codeB, uncached, stderr := runCLI(t, "-csv", "-iters", "1", "-no-cache", "fig7")
	if codeB != 0 {
		t.Fatalf("-no-cache run: exit %d, stderr: %s", codeB, stderr)
	}
	if cached != uncached {
		t.Error("-no-cache changed figure output; caching must be invisible in results")
	}
	// With caching off every lookup computes: no store reports a hit.
	code, out, stderr := runCLI(t, "-metrics-json", "-no-cache", "-iters", "1", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	counters := metricsCounters(t, out)
	for _, stage := range []string{"generate", "compile", "replay", "simulate"} {
		if h := counters["pipeline."+stage+".hits"]; h != 0 {
			t.Errorf("-no-cache served %d %s hits, want 0", h, stage)
		}
	}
	if counters["pipeline.compile.misses"] == 0 {
		t.Error("-no-cache run compiled nothing; the check is vacuous")
	}
}
