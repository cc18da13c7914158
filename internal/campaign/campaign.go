// Package campaign is the suite's campaign scheduler and the only way a
// set of figures runs: it accepts declarative figure specs
// (core.FigureSpec), flattens their points in figure order into one
// launch list, runs the list as one batch on the resilient sweep
// runner, and slices the runs back per figure.
//
// Sharing needs no bookkeeping here. Figures that share a whole launch
// (fig16 and clausectl at register step 0 generate identical kernels)
// are served by the pipeline's simulate store, which is keyed by the
// kernel's source plus its launch shape: the second point is a store
// hit, or waits on the first one's in-flight simulation. Sharing
// below the launch (Fig. 8's kernels are Fig. 7's compute kernels under
// a different block shape) is the seal's: both figures get one seal
// from the pipeline's seal store, and the seal keeps its compiled
// program. The pipeline.simulate.hits and pipeline.compile.hits
// counters report both.
//
// Durability is not this package's business either: with a PersistDir
// every launch result lands in the pipeline's persistent tier, so a
// killed campaign resumes — and shard processes combine — by rerunning
// over the same directory.
package campaign

import (
	"fmt"

	"amdgpubench/internal/core"
)

// Spec is one figure request in a campaign: a display name plus the
// declaratively planned figure. Build specs with the name registry
// (Specs) or the parameterised core builders (Suite.ALUFetchSpec, …).
type Spec struct {
	Name   string
	Figure core.FigureSpec
}

// Options tunes planning.
type Options struct {
	// MaxDomain, when positive, clamps every point's domain to at most
	// MaxDomain x MaxDomain at plan time, except a point whose domain is
	// its measurement (core.KernelPoint.ExactDomain). It is the suite's
	// only sweep clamp (`-max-domain`), so the dry-run schedule shows
	// exactly the launches that execute, and the clamped domain is part
	// of every launch's persist-tier key.
	MaxDomain int
}

// Plan is a scheduled campaign: the input specs and their points
// flattened in figure order. Every point is one launch unit. A Plan is
// single-use — Run assembles series into the specs' figure templates.
type Plan struct {
	Specs []Spec
	// Units holds every spec's points, domains clamped, spec by spec:
	// spec i's points start where spec i-1's end.
	Units []core.KernelPoint
}

// specName names spec si for error messages.
func specName(sp Spec, si int) string {
	if sp.Name != "" {
		return sp.Name
	}
	return fmt.Sprintf("spec %d", si)
}

// NewPlan flattens specs into the launch schedule. Planning validates
// every point up front — a nil kernel or an invalid compute block fails
// here, before anything executes.
func NewPlan(specs []Spec, opts Options) (*Plan, error) {
	p := &Plan{Specs: specs}
	for si, sp := range specs {
		for pi, pt := range sp.Figure.Points {
			if pt.K == nil {
				return nil, fmt.Errorf("campaign: %s point %d has no kernel", specName(sp, si), pi)
			}
			if _, err := pt.Card.Order(); err != nil {
				return nil, fmt.Errorf("campaign: %s point %d: %w", specName(sp, si), pi, err)
			}
			if opts.MaxDomain > 0 && !pt.ExactDomain {
				pt.W, pt.H = min(pt.W, opts.MaxDomain), min(pt.H, opts.MaxDomain)
			}
			p.Units = append(p.Units, pt)
		}
	}
	return p, nil
}
