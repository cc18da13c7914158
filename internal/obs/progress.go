package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a live sweep progress reporter: points done over total,
// failure count, the pipeline's cache hit rate and an ETA, rendered as a
// single carriage-return-rewritten line. A campaign run drives it from
// the sweep's per-point hook, on every worker, so all methods are safe
// for concurrent use; a nil *Progress no-ops.
type Progress struct {
	w     io.Writer
	label string
	total int

	mu         sync.Mutex
	start      time.Time
	done       int
	failed     int
	hitRate    float64
	lastRender time.Time
	// renderEvery throttles intermediate renders; the final render always
	// lands. Zero disables throttling (tests).
	renderEvery time.Duration
}

// NewProgress starts a reporter for a sweep of total points, writing to
// w. The label names the sweep in the rendered line.
func NewProgress(w io.Writer, label string, total int) *Progress {
	return &Progress{
		w: w, label: label, total: total,
		start:       time.Now(),
		renderEvery: 100 * time.Millisecond,
	}
}

// Point records one completed sweep point and rerenders (throttled).
// hitRate is the pipeline's current artifact-cache hit rate in [0,1].
func (p *Progress) Point(failed bool, hitRate float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	if failed {
		p.failed++
	}
	p.hitRate = hitRate
	p.render(p.done == p.total)
	p.mu.Unlock()
}

// Finish renders the final state and terminates the line.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.render(true)
	fmt.Fprintln(p.w)
	p.mu.Unlock()
}

// render draws the line; callers hold p.mu. Intermediate renders are
// throttled so a thousands-of-points sweep does not spend its time
// repainting a terminal.
func (p *Progress) render(force bool) {
	now := time.Now()
	if !force && p.renderEvery > 0 && now.Sub(p.lastRender) < p.renderEvery {
		return
	}
	p.lastRender = now

	pct := 0.0
	if p.total > 0 {
		pct = 100 * float64(p.done) / float64(p.total)
	}
	fmt.Fprintf(p.w, "\r%s: %d/%d points (%.0f%%)", p.label, p.done, p.total, pct)
	if p.failed > 0 {
		fmt.Fprintf(p.w, ", %d failed", p.failed)
	}
	fmt.Fprintf(p.w, ", cache hit %.1f%%", 100*p.hitRate)
	if eta, ok := p.eta(now); ok {
		fmt.Fprintf(p.w, ", ETA %s", eta)
	}
}

// eta projects the remaining wall time from the measured per-point rate.
func (p *Progress) eta(now time.Time) (time.Duration, bool) {
	remaining := p.total - p.done
	if p.done <= 0 || remaining <= 0 {
		return 0, false
	}
	perPoint := now.Sub(p.start) / time.Duration(p.done)
	return (perPoint * time.Duration(remaining)).Round(100 * time.Millisecond), true
}
