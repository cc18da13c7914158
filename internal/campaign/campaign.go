// Package campaign is the suite's campaign scheduler: it accepts
// declarative figure specs (core.FigureSpec, the same specs
// core.Suite.RunFigureSpec runs one at a time), expands them into
// deduplicated launch units, schedules the units as one batch on the
// resilient sweep runner, and fans each unit's result back out to every
// subscribing figure point.
//
// The unit of dedup is the launch: one unit per (kernel hash, arch, walk
// order, domain) — the full execution identity of a sweep point, since a
// Run is a deterministic function of exactly those coordinates plus the
// suite's iteration count. Sharing below the launch (Fig. 8's kernels
// are Fig. 7's compute kernels under a different block shape: a
// different launch, but the same compiled artifact) needs no bookkeeping
// here — the pipeline's content-addressed stores already dedup it, and
// the pipeline.compile.hits counter reports it. The plan's Deduped
// statistic counts the launches the campaign avoids versus running each
// figure's sweep on its own; `campaign.points.deduped` surfaces it.
//
// Durability is not this package's business either: with a PersistDir
// every unit's launch result lands in the pipeline's persistent tier, so
// a killed campaign resumes — and shard processes combine — by rerunning
// over the same directory.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/raster"
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
	// MaxDomain x MaxDomain at plan time — before dedup keys and the
	// scheduled order are computed, so a clamped campaign dedups
	// collapsed domains and its shards partition the same unit list.
	// Run the plan on a suite with the same MaxDomain; the suite-level
	// clamp is then a no-op.
	MaxDomain int
}

// launchKey is a launch unit's identity: everything a Run deterministically
// depends on besides the suite's iteration count.
type launchKey struct {
	hash  [sha256.Size]byte
	arch  device.Arch
	order raster.Order
	w, h  int
}

// Ref is one subscribing figure point: Plan.Specs[Spec].Figure.Points[Point].
type Ref struct {
	Spec  int
	Point int
}

// Unit is one deduplicated launch: a representative point (the first
// subscriber, domain clamped) plus every figure point its result fans
// out to.
type Unit struct {
	Point core.KernelPoint
	Refs  []Ref
	key   launchKey
}

// Stats are a plan's headline numbers.
type Stats struct {
	Figures int
	Points  int
	// Units is the number of distinct launches across the whole
	// campaign — what actually executes.
	Units int
	// Deduped is the cross-figure saving: the sum over figures of each
	// figure's own distinct launches, minus Units — the launches running
	// the figures sequentially would have performed that the campaign
	// does not.
	Deduped int
}

// Plan is a scheduled campaign: the input specs, the deduplicated launch
// units in execution order, and the subscription mapping back to figure
// points. A Plan is single-use — Run assembles series into the specs'
// figure templates.
type Plan struct {
	Specs []Spec
	Units []Unit
	Stats Stats
	// unitOf[spec][point] is the scheduled unit serving that figure point.
	unitOf [][]int
}

// specName names spec si for error messages.
func specName(sp Spec, si int) string {
	if sp.Name != "" {
		return sp.Name
	}
	return fmt.Sprintf("spec %d", si)
}

// NewPlan expands specs into a deduplicated, prioritized unit schedule.
// Planning validates every point up front — a nil kernel or an invalid
// compute block fails here, before anything executes.
func NewPlan(specs []Spec, opts Options) (*Plan, error) {
	p := &Plan{Specs: specs, unitOf: make([][]int, len(specs))}
	p.Stats.Figures = len(specs)

	launchIdx := make(map[launchKey]int)
	within := 0
	for si, sp := range specs {
		figLaunch := make(map[launchKey]struct{})
		p.unitOf[si] = make([]int, len(sp.Figure.Points))
		for pi, pt := range sp.Figure.Points {
			if pt.K == nil {
				return nil, fmt.Errorf("campaign: %s point %d has no kernel", specName(sp, si), pi)
			}
			order, err := pt.Card.Order()
			if err != nil {
				return nil, fmt.Errorf("campaign: %s point %d: %w", specName(sp, si), pi, err)
			}
			w, h := pt.W, pt.H
			if opts.MaxDomain > 0 {
				w, h = min(w, opts.MaxDomain), min(h, opts.MaxDomain)
			}
			lk := launchKey{hash: pt.K.Hash(), arch: pt.Card.Arch, order: order, w: w, h: h}
			ui, ok := launchIdx[lk]
			if !ok {
				ui = len(p.Units)
				launchIdx[lk] = ui
				rep := pt
				rep.W, rep.H = w, h
				p.Units = append(p.Units, Unit{Point: rep, key: lk})
			}
			p.Units[ui].Refs = append(p.Units[ui].Refs, Ref{Spec: si, Point: pi})
			p.unitOf[si][pi] = ui
			figLaunch[lk] = struct{}{}
		}
		within += len(figLaunch)
		p.Stats.Points += len(sp.Figure.Points)
	}
	p.Stats.Units = len(p.Units)
	p.Stats.Deduped = within - len(p.Units)

	p.prioritize()
	return p, nil
}

// prioritize fixes the execution order: most-subscribed units first (a
// shared unit's failure poisons several figures, so surface it early —
// and the most-reused compile artifacts warm the cache first), then
// arch-major batches for device-context locality, then a total
// deterministic order over the remaining key fields. Determinism is
// load-bearing, not cosmetic: shards partition units by scheduled
// index, so every shard process replanning the same specs must
// reproduce the same order or the shards would overlap and leave gaps.
func (p *Plan) prioritize() {
	idx := make([]int, len(p.Units))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return unitLess(p.Units[idx[x]], p.Units[idx[y]])
	})
	perm := make([]int, len(idx))
	units := make([]Unit, len(idx))
	for newi, oldi := range idx {
		perm[oldi] = newi
		units[newi] = p.Units[oldi]
	}
	p.Units = units
	for si := range p.unitOf {
		for pi := range p.unitOf[si] {
			p.unitOf[si][pi] = perm[p.unitOf[si][pi]]
		}
	}
}

// unitLess is the scheduling priority. Launch keys are unique per unit,
// so this is a strict total order.
func unitLess(a, b Unit) bool {
	if len(a.Refs) != len(b.Refs) {
		return len(a.Refs) > len(b.Refs)
	}
	if a.key.arch != b.key.arch {
		return a.key.arch < b.key.arch
	}
	if c := bytes.Compare(a.key.hash[:], b.key.hash[:]); c != 0 {
		return c < 0
	}
	if a.key.order.Mode != b.key.order.Mode {
		return a.key.order.Mode < b.key.order.Mode
	}
	if a.key.order.BlockW != b.key.order.BlockW {
		return a.key.order.BlockW < b.key.order.BlockW
	}
	if a.key.order.BlockH != b.key.order.BlockH {
		return a.key.order.BlockH < b.key.order.BlockH
	}
	if a.key.w != b.key.w {
		return a.key.w < b.key.w
	}
	return a.key.h < b.key.h
}

// UnitOf returns the scheduled unit index serving spec si's point pi.
func (p *Plan) UnitOf(si, pi int) int { return p.unitOf[si][pi] }

// Shared reports how many of spec si's points ride units that another
// spec also subscribes to.
func (p *Plan) Shared(si int) int {
	n := 0
	for _, ui := range p.unitOf[si] {
		for _, r := range p.Units[ui].Refs {
			if r.Spec != si {
				n++
				break
			}
		}
	}
	return n
}
