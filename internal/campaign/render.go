package campaign

import (
	"fmt"
	"io"

	"amdgpubench/internal/ilc"
	"amdgpubench/internal/sim"
)

// RenderPlan writes the human-readable dry-run: the plan's size, one
// line per figure, and the full scheduled unit listing, one unit per
// figure point; a unit that switches compiler paths or simulated
// mechanisms off names them (opts=, ablate=). The rendering is
// deterministic (the plan is), so `amdmb campaign -plan` output is
// golden-pinned in cmd/amdmb's tests — change the format and the golden
// together. The hash column is each kernel's content hash, so rendering
// builds every generated kernel; a build that fails is the error.
func RenderPlan(w io.Writer, p *Plan) error {
	fmt.Fprintf(w, "campaign plan: %d figures, %d points\n", len(p.Specs), len(p.Units))
	fmt.Fprintln(w, "figures:")
	for _, sp := range p.Specs {
		fmt.Fprintf(w, "  %-10s %4d points\n", sp.Name, len(sp.Figure.Points))
	}
	fmt.Fprintln(w, "schedule:")
	for i, u := range p.Units {
		sum, err := u.K.Hash()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %04d kernel=%s hash=%x card=%q x=%g domain=%dx%d",
			i, u.K.Name, sum[:8], u.Card.Label(), u.X, u.W, u.H)
		if u.Opts != (ilc.Options{}) {
			fmt.Fprintf(w, " opts=%+v", u.Opts)
		}
		if u.Ablate != (sim.Ablations{}) {
			fmt.Fprintf(w, " ablate=%+v", u.Ablate)
		}
		fmt.Fprintln(w)
	}
	return nil
}
