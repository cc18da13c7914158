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

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/registry.sha256 from current output")

// TestRegistryFigureDigests pins every registry figure: each one runs
// alone on a reduced domain and its CSV, header line included (so the
// figure's ID and title are pinned too), must hash to the digest in
// testdata. Re-pin with
// `go test ./internal/campaign -run TestRegistryFigureDigests -update-goldens`
// after a deliberate model or format change.
func TestRegistryFigureDigests(t *testing.T) {
	s := testSuite(64)
	s.DisableArtifactCache = false // caching is an execution detail, never a result
	var got strings.Builder
	for _, name := range FigureNames() {
		specs := mustSpecs(t, s, name)
		fig, _, err := s.RunFigureSpec(specs[0].Figure)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(fig.CSV())), name)
	}
	path := filepath.Join("testdata", "registry.sha256")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-goldens to pin)", err)
	}
	if got.String() != string(want) {
		t.Errorf("registry figure digests drifted:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
