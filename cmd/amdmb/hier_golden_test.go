package main

// Golden pinning for the memory-hierarchy dissection figures. These
// only exist as campaign figures (there is no per-figure experiment),
// so every test here drives `amdmb campaign`, which also pins the
// trailing-'*' glob expansion, the cached-vs-uncached identity and the
// sharded-vs-direct identity of the new sweeps.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hierGoldenFigures is the pinned set, in the order `-figs 'hier-*'`
// expands to (sorted).
var hierGoldenFigures = []string{"hier-lat", "hier-line", "hier-stride", "hier-wset"}

func TestHierGoldenCSVs(t *testing.T) {
	for _, fig := range hierGoldenFigures {
		t.Run(fig, func(t *testing.T) {
			code, out, stderr := runCLI(t, "campaign", "-figs", fig, "-iters", "1", "-csv")
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			path := filepath.Join("testdata", "golden", fig+".csv")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/amdmb -run TestHierGoldenCSVs -update-goldens` to pin)", err)
			}
			if out != string(want) {
				t.Errorf("%s CSV drifted from golden:\n%s", fig, firstDiff(string(want), out))
			}
		})
	}
}

// concatenatedHierGoldens is the stdout a `-figs 'hier-*' -csv` campaign
// must produce: the pinned CSVs back to back in glob-expansion order.
func concatenatedHierGoldens(t *testing.T) string {
	t.Helper()
	var want strings.Builder
	for _, fig := range hierGoldenFigures {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", fig+".csv"))
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/amdmb -run TestHierGoldenCSVs -update-goldens` to pin)", err)
		}
		want.Write(data)
	}
	return want.String()
}

// TestHierCampaignGlobCacheIdentity runs the whole dissection bundle as
// one glob campaign, with the artifact cache on and off: both runs must
// emit stdout byte-identical to the concatenated goldens — caching is
// an execution detail, never a result.
func TestHierCampaignGlobCacheIdentity(t *testing.T) {
	want := concatenatedHierGoldens(t)
	for _, extra := range [][]string{nil, {"-no-cache"}} {
		args := append([]string{"campaign", "-figs", "hier-*", "-iters", "1", "-csv"}, extra...)
		code, out, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
		}
		if out != want {
			t.Errorf("%v stdout diverges from goldens:\n%s", args, firstDiff(want, out))
		}
	}
}

// TestHierCampaignShardsMergeToGoldens splits the dissection bundle
// across two shard processes sharing one -cache-dir: the unsharded
// follow-up must serve everything from disk (pipeline.persist.misses 0)
// and emit the goldens bit-exactly.
func TestHierCampaignShardsMergeToGoldens(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	for shard := 0; shard < 2; shard++ {
		spec := fmt.Sprintf("%d/2", shard)
		code, out, stderr := runCLI(t,
			"campaign", "-figs", "hier-*", "-iters", "1", "-cache-dir", cache, "-shard", spec)
		if code != 0 {
			t.Fatalf("shard %s: exit %d, stderr: %s", spec, code, stderr)
		}
		if out != "" {
			t.Errorf("shard %s emitted figures; shards must only persist:\n%s", spec, out)
		}
	}
	code, out, stderr := runCLI(t,
		"campaign", "-figs", "hier-*", "-iters", "1", "-csv", "-cache-dir", cache, "-metrics")
	if code != 0 {
		t.Fatalf("merge run: exit %d, stderr: %s", code, stderr)
	}
	out, metrics := cutMetrics(t, out)
	requireAllPersisted(t, metrics)
	if want := concatenatedHierGoldens(t); out != want {
		t.Errorf("sharded+merged campaign stdout diverges from goldens:\n%s", firstDiff(want, out))
	}
}

// TestCampaignGlobUsage pins the glob surface: a glob matching nothing
// is a usage error, and mixing a glob with one of its own members is a
// duplicate.
func TestCampaignGlobUsage(t *testing.T) {
	if code, _, stderr := runCLI(t, "campaign", "-figs", "nope-*"); code != 2 ||
		!strings.Contains(stderr, "matches no figure") {
		t.Errorf("empty glob: exit %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "campaign", "-figs", "hier-*,hier-lat", "-plan"); code != 1 ||
		!strings.Contains(stderr, "listed twice") {
		t.Errorf("glob+member duplicate: exit %d, stderr %s", code, stderr)
	}
}
