package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/obs"
)

// paperFigs is the paper campaign in output order: every figure of the
// paper plus the clause-usage control (13 figures, 2180 launches).
var paperFigs = []string{
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15a", "fig15b", "fig16", "fig17", "clausectl",
}

// goldenFigs have byte-exact CSVs pinned by the amdmb CLI tests. Each
// golden file is Figure.CSV() plus the blank line the CLI prints after
// every figure.
var goldenFigs = []string{"fig7", "fig8", "fig11", "fig16"}

const (
	goldenDir   = "cmd/amdmb/testdata/golden"
	digestsPath = "bench/amdmbbench/testdata/digests.json"
)

// reference holds the expected full-domain output of every paper figure:
// golden bytes for the CLI-pinned four, SHA-256 digests of CSV() for the
// other nine. The model is unvalidated against hardware, so correctness
// here means bit-identity with the pinned outputs, not an error bound.
type reference struct {
	golden map[string]string
	digest map[string]string
}

// loadReference reads the goldens and the digest file under the
// repository root.
func loadReference(root string) (*reference, error) {
	r, err := loadGoldens(root)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, digestsPath))
	if err != nil {
		return nil, fmt.Errorf("digests (regenerate with --update-digests): %w", err)
	}
	if err := json.Unmarshal(b, &r.digest); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	for _, name := range paperFigs {
		if r.golden[name] == "" && r.digest[name] == "" {
			return nil, fmt.Errorf("digests: no entry for %s (regenerate with --update-digests)", name)
		}
	}
	return r, nil
}

// loadGoldens reads only the golden CSVs.
func loadGoldens(root string) (*reference, error) {
	r := &reference{golden: make(map[string]string), digest: make(map[string]string)}
	for _, name := range goldenFigs {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		r.golden[name] = string(b)
	}
	return r, nil
}

func digestOf(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// check compares one full-domain figure's CSV() with its reference.
func (r *reference) check(name, csv string) error {
	if g, ok := r.golden[name]; ok {
		if csv+"\n" != g {
			return fmt.Errorf("%s: CSV differs from %s/%s.csv", name, goldenDir, name)
		}
		return nil
	}
	d, ok := r.digest[name]
	if !ok {
		return fmt.Errorf("%s: no reference output", name)
	}
	if got := digestOf(csv); got != d {
		return fmt.Errorf("%s: CSV digest %s, pinned %s", name, got[:12], d[:12])
	}
	return nil
}

// checkResult verifies a finished full-domain campaign: no unit failed
// and every figure matches its reference.
func (r *reference) checkResult(plan *campaign.Plan, res *campaign.Result) error {
	if n := res.Failed(); n != 0 {
		return fmt.Errorf("campaign: %d units failed", n)
	}
	var errs []error
	for i, fig := range res.Figures {
		if err := r.check(plan.Specs[i].Name, fig.CSV()); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// runCampaign plans and runs the named figures on s, charging the two
// phases to the campaign.plan and campaign.run phase timers in reg.
func runCampaign(s *core.Suite, figs []string, maxDomain int, reg *obs.Registry) (*campaign.Plan, *campaign.Result, error) {
	stop := timed(reg, "campaign.plan_ns")
	specs, err := campaign.Specs(s, figs)
	if err != nil {
		return nil, nil, err
	}
	plan, err := campaign.NewPlan(specs, campaign.Options{MaxDomain: maxDomain})
	stop()
	if err != nil {
		return nil, nil, err
	}
	stop = timed(reg, "campaign.run_ns")
	res, err := plan.Run(s)
	stop()
	return plan, res, err
}

// updateDigests regenerates the digest file from one paper campaign,
// after checking the golden figures still match.
func updateDigests(root string) error {
	s := newSuite(nil, "")
	plan, res, err := runCampaign(s, paperFigs, 0, nil)
	if err != nil {
		return err
	}
	if n := res.Failed(); n != 0 {
		return fmt.Errorf("campaign: %d units failed", n)
	}
	golden, err := loadGoldens(root)
	if err != nil {
		return err
	}
	digests := make(map[string]string)
	for i, fig := range res.Figures {
		name := plan.Specs[i].Name
		if _, ok := golden.golden[name]; ok {
			if err := golden.check(name, fig.CSV()); err != nil {
				return err
			}
			continue
		}
		digests[name] = digestOf(fig.CSV())
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(digests); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, digestsPath), buf.Bytes(), 0o644)
}

// csvHeaderOK is the structural check for outputs with no pinned
// reference: a non-empty CSV whose first line names the figure.
func csvHeaderOK(csv string) bool {
	return strings.HasPrefix(csv, "# ") && strings.Count(csv, "\n") >= 2
}
