package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeCountsAreUsageErrors: a negative -iters or -max-domain is
// rejected before the daemon listens. The unusable -addr makes a
// missing check fail fast instead of serving.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-iters", "-3"}, {"-max-domain", "-1"}} {
		var stderr bytes.Buffer
		code := run(append(args, "-addr", "256.0.0.1:-1"), &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "must not be negative") {
			t.Errorf("%q: exit %d, stderr %q; want a usage error", args, code, stderr.String())
		}
	}
}
