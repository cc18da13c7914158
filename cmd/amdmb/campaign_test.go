package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCampaignMatchesGoldens is the subsystem's acceptance test: a
// campaign over the four golden-pinned figures, with the artifact caches
// disabled so no launch is shared, must write to stdout exactly the
// concatenation of the four golden CSVs — the bytes `amdmb fig7`,
// `amdmb fig8`, ... produce one at a time.
func TestCampaignMatchesGoldens(t *testing.T) {
	code, out, stderr := runCLI(t,
		"campaign", "-figs", strings.Join(goldenFigures, ","), "-iters", "1", "-csv", "-no-cache")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}

	var want strings.Builder
	for _, fig := range goldenFigures {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", fig+".csv"))
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/amdmb -run TestGoldenFigureCSVs -update-goldens` to pin)", err)
		}
		want.Write(data)
	}
	if out != want.String() {
		t.Errorf("campaign stdout is not the concatenation of the goldens:\n%s", firstDiff(want.String(), out))
	}
	if !strings.Contains(stderr, "failed=0") {
		t.Errorf("summary missing failed=0: %s", stderr)
	}
}

// TestCampaignPlanGolden pins the -plan dry-run rendering (the launch
// schedule) for the one registry pair that shares whole launches. Re-pin with -update-goldens after a deliberate format or
// schedule change.
func TestCampaignPlanGolden(t *testing.T) {
	code, out, stderr := runCLI(t, "campaign", "-figs", "fig16,clausectl", "-plan")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	path := filepath.Join("testdata", "campaign_plan.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/amdmb -run TestCampaignPlanGolden -update-goldens` to pin)", err)
	}
	if out != string(want) {
		t.Errorf("campaign plan drifted from golden:\n%s", firstDiff(string(want), out))
	}
}

// TestCampaignUsage pins the subcommand's usage-error surface.
func TestCampaignUsage(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		want     string
	}{
		{"no figs", []string{"campaign"}, 2, "usage: amdmb campaign"},
		{"unknown figure", []string{"campaign", "-figs", "fig99"}, 2, "unknown figure"},
		{"positional figure", []string{"campaign", "-figs", "fig16", "fig7"}, 2, "unexpected arguments"},
		{"empty list", []string{"campaign", "-figs", ","}, 2, "no figures"},
		{"duplicate figure", []string{"campaign", "-figs", "fig16,fig16", "-plan"}, 1, "listed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
		})
	}
}
