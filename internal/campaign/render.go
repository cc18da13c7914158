package campaign

import (
	"fmt"
	"io"
	"strings"
)

// RenderPlan writes the human-readable dry-run: the dedup summary, one
// line per figure, and the full scheduled unit listing. The rendering is
// deterministic (the plan is), so `amdmb campaign -plan` output is
// golden-pinned in cmd/amdmb's tests — change the format and the golden
// together.
func RenderPlan(w io.Writer, p *Plan) {
	st := p.Stats
	fmt.Fprintf(w, "campaign plan: %d figures, %d points\n", st.Figures, st.Points)
	fmt.Fprintf(w, "  launch units:  %4d scheduled   %4d deduped across figures\n", st.Units, st.Deduped)
	fmt.Fprintln(w, "figures:")
	for si, sp := range p.Specs {
		fmt.Fprintf(w, "  %-10s %4d points, %4d on shared units\n",
			sp.Name, len(sp.Figure.Points), p.Shared(si))
	}
	fmt.Fprintln(w, "schedule:")
	for i, u := range p.Units {
		sum := u.Point.K.Hash()
		fmt.Fprintf(w, "  %04d refs=%d kernel=%s hash=%x card=%q x=%g domain=%dx%d subs=%s\n",
			i, len(u.Refs), u.Point.K.Name, sum[:8], u.Point.Card.Label(),
			u.Point.X, u.Point.W, u.Point.H, p.subs(u))
	}
}

// subs renders a unit's subscribers as name[point] terms.
func (p *Plan) subs(u Unit) string {
	terms := make([]string, len(u.Refs))
	for i, r := range u.Refs {
		terms[i] = fmt.Sprintf("%s[%d]", specName(p.Specs[r.Spec], r.Spec), r.Point)
	}
	return strings.Join(terms, ",")
}
