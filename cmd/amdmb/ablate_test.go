package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAblateWarmRerunBuildsNothing: the ablation study is a registry
// figure, so a rerun over a filled -cache-dir serves all of its launches
// from disk, GPR-write column included, and prints the cold table.
func TestAblateWarmRerunBuildsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	run := func() (table string, counters map[string]int64) {
		t.Helper()
		code, out, stderr := runCLI(t, "-iters", "1", "-cache-dir", dir, "-metrics-json", "ablate")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		counters = metricsCounters(t, out) // fails the test when there is no JSON
		return out[:strings.Index(out, "\n{")], counters
	}
	cold, c := run()
	if c["pipeline.compile.misses"] == 0 || !strings.Contains(cold, "GPR writes ablated") {
		t.Fatalf("the cold run compiled nothing or printed no table; the check is vacuous:\n%s", cold)
	}
	warm, c := run()
	for _, name := range []string{"pipeline.compile.misses", "pipeline.generate.misses", "pipeline.persist.misses"} {
		if c[name] != 0 {
			t.Errorf("warm ablate: %s = %d, want 0", name, c[name])
		}
	}
	if c["pipeline.persist.hits"] == 0 {
		t.Error("warm ablate served nothing from the persist tier")
	}
	if warm != cold {
		t.Errorf("warm ablate table differs from the cold one:\n%s", firstDiff(cold, warm))
	}
}

// TestAblateMaxDomainClampsLaunches: -max-domain clamps the study's 12
// launches like any figure's.
func TestAblateMaxDomainClampsLaunches(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI(t, "-iters", "1", "-max-domain", "16", "-trace", tracePath, "ablate")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("-trace output is not valid trace_event JSON: %v", err)
	}
	launches := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Name != "launch" {
			continue
		}
		launches++
		if d := e.Args["domain"]; d != "16x16" {
			t.Errorf("launch of %s at domain %s, want 16x16", e.Args["kernel"], d)
		}
	}
	if launches != 12 {
		t.Errorf("%d launches traced, want 12", launches)
	}
}

// TestCampaignPlanShowsAblations: the dry run lists the study's 12
// clamped units, and each ablated unit (x=1) names the switch it turns
// off, so it never renders like its base twin.
func TestCampaignPlanShowsAblations(t *testing.T) {
	code, out, stderr := runCLI(t, "campaign", "-plan", "-max-domain", "16", "-figs", "ablate")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	unit := regexp.MustCompile(`(?m)^  \d{4} kernel=.* x=(\d) domain=(\d+x\d+)(.*)$`)
	named := regexp.MustCompile(`^ (opts|ablate)=\{.*:true.*\}$`)
	units := unit.FindAllStringSubmatch(out, -1)
	if len(units) != 12 {
		t.Fatalf("%d units listed, want 12:\n%s", len(units), out)
	}
	for _, u := range units {
		if u[2] != "16x16" || named.MatchString(u[3]) != (u[1] == "1") {
			t.Errorf("unit %q: want domain 16x16 and a named switch exactly on x=1", u[0])
		}
	}
}

// TestAblateFailedRowsAreRows: under a watchdog budget no launch meets,
// a failed ablation row prints as FAILED instead of aborting the run, so
// fig7 prints beside it, the failure table lists both figures' points
// (fig7's 320 and the study's 12) and the exit status is the table's.
func TestAblateFailedRowsAreRows(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-timeout", "1000", "-max-domain", "16", "fig7", "ablate")
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "amdmb: 332 point(s) failed") {
		t.Errorf("stderr does not count 332 failed points: %s", stderr)
	}
	failed := regexp.MustCompile(`(?m)^\S.*  FAILED +FAILED +FAILED +- +-\s*$`)
	if n := len(failed.FindAllString(out, -1)); n != 6 {
		t.Errorf("%d ablation rows print FAILED, want 6:\n%s", n, out)
	}
	table := strings.Index(out, "Failure summary")
	if !strings.Contains(out, "ALU:Fetch Ratio for 16 Inputs") || table < 0 {
		t.Fatalf("fig7 or the failure table is missing:\n%s", out)
	}
	// The first column is the point's card (a record names its series),
	// so the header says card.
	if !regexp.MustCompile(`(?m)^card +x +attempts +error`).MatchString(out[table:]) {
		t.Errorf("failure table header does not read card, x, attempts, error:\n%s", out[table:])
	}
	// The burst-writes row's kernel is the study's own: its base and
	// ablated launches are both listed.
	if n := strings.Count(out[table:], `kernel "writelat_o8"`); n != 2 {
		t.Errorf("failure table lists writelat_o8 %d times, want 2", n)
	}
	// Each record names its mechanism, so rows on one card stay apart.
	for _, mech := range []string{
		"clause switching (latency hiding)", "burst writes", "tiled texture layout",
		"PV forwarding", "clause temporaries", "all forwarding (PV + temps)",
	} {
		for _, x := range []string{"0", "1"} {
			if !strings.Contains(out[table:], mech+" at x="+x+": ") {
				t.Errorf("failure table has no record for %s at x=%s", mech, x)
			}
		}
	}
}
