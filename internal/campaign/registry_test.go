package campaign

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite the testdata digest and claims pins from current output")

// TestRegistryFigureDigests pins every registry figure: each one runs
// alone and its CSV, header line included (so the figure's ID and title
// are pinned too), must hash to the digest in testdata. Two passes: every
// figure on a reduced domain (registry.sha256), and the figures the core
// builders plan at the paper's full domain (registry_full.sha256), which
// is the only pass that sees a sweep's domain size. Re-pin with
// `go test ./internal/campaign -run TestRegistryFigureDigests -update-goldens`
// after a deliberate model or format change.
func TestRegistryFigureDigests(t *testing.T) {
	var core []string
	for _, name := range FigureNames() {
		if !strings.HasPrefix(name, "hier-") {
			core = append(core, name)
		}
	}
	for _, pass := range []struct {
		file      string
		maxDomain int
		names     []string
	}{
		{"registry.sha256", 64, FigureNames()},
		{"registry_full.sha256", 0, core},
	} {
		s := testSuite()
		s.DisableArtifactCache = false // caching is an execution detail, never a result
		var got strings.Builder
		for _, name := range pass.names {
			fig := runFigure(t, s, pass.maxDomain, name)
			fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(fig.CSV())), name)
		}
		path := filepath.Join("testdata", pass.file)
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update-goldens to pin)", err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: registry figure digests drifted:\ngot:\n%swant:\n%s", path, got.String(), want)
		}
	}
}
