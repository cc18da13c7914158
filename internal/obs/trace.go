// Package obs is the suite's zero-dependency observability layer: a span
// tracer whose output is Chrome trace_event JSON (viewable in
// chrome://tracing or Perfetto), a metrics registry of counters, gauges
// and fixed-bucket latency histograms, and a live sweep progress
// reporter. The launch pipeline, the resilient sweep runner, the
// campaign scheduler and the CLI are its clients.
//
// Everything here is built to disappear when unused: a nil *Tracer, a nil
// *Registry, a nil *Counter and a nil *Progress are all valid no-op
// receivers whose methods cost a pointer comparison and allocate nothing,
// so the launch hot path pays ~zero when observability is off (the
// AllocsPerRun regression tests hold either way).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer records spans and renders them as Chrome trace_event JSON.
// Spans on the same track (tid) nest by time containment, which is how
// trace viewers display them: a top-level span leases a track for its
// lifetime and its children inherit it, so concurrent sweep points (a
// unit span and its launches) land on distinct tracks while sequential
// ones reuse a small, stable set — one visual lane per point in flight.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	events []traceEvent
	free   []int // released track ids, reused LIFO
	next   int   // next never-used track id
	maxTID int   // high-water mark, for thread_name metadata
}

// traceEvent is one Chrome trace_event "complete" event (ph "X").
// Timestamps and durations are microseconds, per the format.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// tracePID is the single process id every event reports; the suite is one
// process and the viewer's process grouping is noise here.
const tracePID = 1

// NewTracer starts a tracer; all span timestamps are relative to this
// call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Enabled reports whether the tracer records anything. Callers use it to
// skip building span names and args when tracing is off:
//
//	if tr.Enabled() {
//		sp = tr.Begin("launch " + name).Arg("card", label)
//	}
func (t *Tracer) Enabled() bool { return t != nil }

// Span is one timed region. The zero Span is a valid no-op: every method
// on it returns immediately, so spans can be threaded through APIs
// unconditionally.
type Span struct {
	tr    *Tracer
	tid   int
	root  bool
	name  string
	cat   string
	start time.Duration
	args  map[string]string
}

// Begin opens a top-level span on a leased track. End releases the
// track. A nil tracer returns the zero (no-op) Span.
func (t *Tracer) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	var tid int
	if n := len(t.free); n > 0 {
		tid = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		tid = t.next
		t.next++
		if tid > t.maxTID {
			t.maxTID = tid
		}
	}
	t.mu.Unlock()
	return Span{tr: t, tid: tid, root: true, name: name, start: time.Since(t.start)}
}

// Child opens a nested span on the parent's track. It must End before
// the parent does (single goroutine use), which is exactly the shape of
// the pipeline's stages inside a launch.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{tr: s.tr, tid: s.tid, name: name, start: time.Since(s.tr.start)}
}

// Cat sets the span's category (the viewer's color/filter key).
func (s Span) Cat(cat string) Span {
	s.cat = cat
	return s
}

// Arg attaches a key=value annotation shown in the viewer's detail pane.
// No-op (and alloc-free) on the zero Span.
func (s Span) Arg(key, value string) Span {
	if s.tr == nil {
		return s
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[key] = value
	return s
}

// End closes the span and records its event; a root span also releases
// its track for reuse.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := time.Since(s.tr.start)
	ev := traceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   float64(s.start.Nanoseconds()) / 1e3,
		Dur:  float64((end - s.start).Nanoseconds()) / 1e3,
		PID:  tracePID,
		TID:  s.tid,
		Args: s.args,
	}
	t := s.tr
	t.mu.Lock()
	t.events = append(t.events, ev)
	if s.root {
		t.free = append(t.free, s.tid)
	}
	t.mu.Unlock()
}

// Len reports how many spans have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the JSON object format of the trace_event spec: the
// events array plus a display hint. Perfetto and chrome://tracing both
// load it directly.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Export renders the recorded spans as trace_event JSON. Metadata
// events name the process and each launch track, so the viewer shows
// "lane N" rows instead of bare ids.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.events)+t.maxTID+2)
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]string{"name": "amdmb"},
	})
	for tid := 0; tid <= t.maxTID && t.next > 0; tid++ {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]string{"name": fmt.Sprintf("lane %d", tid)},
		})
	}
	events = append(events, t.events...)
	t.mu.Unlock()

	data, err := json.MarshalIndent(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFile writes the trace atomically enough for its purpose: straight
// to the named file, truncating any previous trace.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Snapshot returns the recorded (name, tid) pairs in completion order,
// for tests asserting span structure without parsing JSON.
func (t *Tracer) Snapshot() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.events))
	for i, e := range t.events {
		out[i] = SpanInfo{Name: e.Name, TID: e.TID, StartUS: e.TS, DurUS: e.Dur, Args: e.Args}
	}
	return out
}

// SpanInfo is one recorded span, as Snapshot reports it.
type SpanInfo struct {
	Name    string
	TID     int
	StartUS float64
	DurUS   float64
	Args    map[string]string
}

// sortSpansByStart orders spans by start time; tests use it to assert
// nesting.
func sortSpansByStart(spans []SpanInfo) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
}
