package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cutMetrics splits a run's stdout into the figure output and the
// -metrics table the epilogue prints after it.
func cutMetrics(t *testing.T, out string) (figures, metrics string) {
	t.Helper()
	i := strings.Index(out, "\nMetrics\n")
	if i < 0 {
		t.Fatalf("stdout has no -metrics table:\n%s", out)
	}
	return out[:i+1], out[i+1:]
}

// requireAllPersisted fails unless a -metrics table shows the run
// computed no simulate result: every launch was served from the
// persistent cache.
func requireAllPersisted(t *testing.T, metrics string) {
	t.Helper()
	if !regexp.MustCompile(`(?m)^pipeline\.persist\.misses +0$`).MatchString(metrics) {
		t.Errorf("final run missed the persistent cache:\n%s", metrics)
	}
}

// TestCampaignShardsMergeToGoldens is the sharding acceptance test: the
// golden bundle split across two shard processes sharing one -cache-dir,
// then an unsharded run over the same directory that serves every
// launch from disk — emitting stdout byte-identical to the concatenated
// golden CSVs while computing nothing itself.
func TestCampaignShardsMergeToGoldens(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	figs := strings.Join(goldenFigures, ",")

	for shard := 0; shard < 2; shard++ {
		spec := fmt.Sprintf("%d/2", shard)
		code, out, stderr := runCLI(t,
			"campaign", "-figs", figs, "-iters", "1", "-cache-dir", cache, "-shard", spec)
		if code != 0 {
			t.Fatalf("shard %s: exit %d, stderr: %s", spec, code, stderr)
		}
		if out != "" {
			t.Errorf("shard %s emitted figures; shards must only persist:\n%s", spec, out)
		}
		if !strings.Contains(stderr, "campaign shard "+spec+":") {
			t.Errorf("shard %s summary missing: %s", spec, stderr)
		}
		if !strings.Contains(stderr, "failed=0") {
			t.Errorf("shard %s recorded failures: %s", spec, stderr)
		}
	}

	code, out, stderr := runCLI(t,
		"campaign", "-figs", figs, "-iters", "1", "-csv", "-cache-dir", cache, "-metrics")
	if code != 0 {
		t.Fatalf("merge run: exit %d, stderr: %s", code, stderr)
	}
	out, metrics := cutMetrics(t, out)
	requireAllPersisted(t, metrics)

	var want strings.Builder
	for _, fig := range goldenFigures {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", fig+".csv"))
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/amdmb -run TestGoldenFigureCSVs -update-goldens` to pin)", err)
		}
		want.Write(data)
	}
	if out != want.String() {
		t.Errorf("sharded+merged campaign stdout diverges from goldens:\n%s", firstDiff(want.String(), out))
	}
}

// TestCampaignShardUsage pins the sharding flag's usage-error surface.
func TestCampaignShardUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no cache dir", []string{"campaign", "-figs", "fig16", "-shard", "0/2"}, "requires -cache-dir"},
		{"no cache", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-no-cache", "-shard", "0/2"}, "cannot combine with -no-cache"},
		{"bad format", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "2"}, "bad -shard"},
		{"out of range", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "2/2"}, "bad -shard"},
		{"negative", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "-1/2"}, "bad -shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
		})
	}
}
