package main

import (
	"math"
	"testing"

	"amdgpubench/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestCounterDeltaAndRatios(t *testing.T) {
	c := make(counters)
	c.addSnapshot(obs.Snapshot{
		Counters:   []obs.CounterValue{{Name: "a", Value: 5}},
		Gauges:     []obs.CounterValue{{Name: "g", Value: 7}},
		Histograms: []obs.HistogramValue{{Name: "h", Count: 3, Sum: 99}},
	})
	c.addSnapshot(obs.Snapshot{Counters: []obs.CounterValue{{Name: "a", Value: 2}}})
	if c["a"] != 7 || c["h.count"] != 3 {
		t.Fatalf("ledger = %v, want a=7 h.count=3", c)
	}
	if _, ok := c["g"]; ok {
		t.Error("gauges are levels and must not be summed")
	}
	base := counters{"a": 7, "h.count": 3}
	c["a"] += 10
	c["new"] = 4
	d := c.sub(base)
	if d["a"] != 10 || d["new"] != 4 || d["h.count"] != 0 {
		t.Errorf("delta = %v, want a=10 new=4 h.count=0", d)
	}
	if ratio(1, 4) != 0.25 || ratio(3, 0) != 0 {
		t.Error("ratio: want 1/4 = 0.25 and x/0 = 0")
	}

	// Every rate comes with its base, lookups per op.
	u := phase{lat: []float64{1, 1}, delta: counters{
		"pipeline.compile.hits":       3,
		"pipeline.compile.coalesced":  1,
		"pipeline.compile.misses":     4,
		"pipeline.compile.compute_ns": 6e6,
		"pipeline.persist.hits":       0,
		"pipeline.persist.misses":     0,
	}}
	m := layerValues(u, phase{lat: []float64{1}})
	if m["pipeline.compile_hit_rate"] != 0.5 || m["pipeline.compile_hit_rate.base"] != 4 {
		t.Errorf("compile rate %g base %g, want 0.5 base 4", m["pipeline.compile_hit_rate"], m["pipeline.compile_hit_rate.base"])
	}
	if m["ilc.compile_ms"] != 3 || m["ilc.compiled"] != 2 {
		t.Errorf("compile ms %g compiled %g, want 3 and 2 per op", m["ilc.compile_ms"], m["ilc.compiled"])
	}
	if m["pipeline.persist_hit_rate"] != 0 || m["pipeline.persist_hit_rate.base"] != 0 {
		t.Error("a rate with no lookups must read 0 with base 0")
	}
	for _, def := range perLayer {
		if v, ok := m[def.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a finite value", def.name, v)
		}
	}
}

func TestSelfTimesFromSyntheticSpans(t *testing.T) {
	spans := []obs.SpanInfo{
		// Track 0: a launch with compile, trace, replay and simulate
		// children; 100us in total, 10us of it in no child.
		{Name: "launch", TID: 0, StartUS: 0, DurUS: 100},
		{Name: "compile", TID: 0, StartUS: 0, DurUS: 40},
		{Name: "trace", TID: 0, StartUS: 40, DurUS: 5},
		{Name: "replay", TID: 0, StartUS: 45, DurUS: 25},
		{Name: "simulate", TID: 0, StartUS: 75, DurUS: 20},
		// The track is reused by the next launch, which has no children.
		{Name: "launch", TID: 0, StartUS: 100, DurUS: 20},
		// Track 1 overlaps track 0 in time but is never its child.
		{Name: "unit", TID: 1, StartUS: 0, DurUS: 130},
		{Name: "generate", TID: 2, StartUS: 10, DurUS: 3},
	}
	got := selfTimes(spans)
	want := map[string]spanStat{
		"launch":   {Count: 2, TotalUS: 120, SelfUS: 30},
		"compile":  {Count: 1, TotalUS: 40, SelfUS: 40},
		"trace":    {Count: 1, TotalUS: 5, SelfUS: 5},
		"replay":   {Count: 1, TotalUS: 25, SelfUS: 25},
		"simulate": {Count: 1, TotalUS: 20, SelfUS: 20},
		"unit":     {Count: 1, TotalUS: 130, SelfUS: 130},
		"generate": {Count: 1, TotalUS: 3, SelfUS: 3},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}

	tp := phase{lat: []float64{1}, spans: got}
	m := layerValues(phase{lat: []float64{1}}, tp)
	if m["cal.self_ms"] != 0.03 || m["ilc.self_ms"] != 0.04 || !near(m["core.unit_overhead_ms"], 0.01) {
		t.Errorf("cal.self %g ilc.self %g unit overhead %g, want 0.03, 0.04, 0.01",
			m["cal.self_ms"], m["ilc.self_ms"], m["core.unit_overhead_ms"])
	}
	// Stage self times plus the launch remainder account for all of
	// the launch time.
	sum := m["ilc.self_ms"] + m["sim.trace_self_ms"] + m["cache.self_ms"] + m["sim.self_ms"] + m["cal.self_ms"]
	if !near(sum, 0.12) {
		t.Errorf("self times sum to %g ms, want the 0.12 ms of launches", sum)
	}

	d := got.sub(spanTable{"launch": {Count: 1, TotalUS: 100, SelfUS: 10}})
	if d["launch"] != (spanStat{Count: 1, TotalUS: 20, SelfUS: 20}) {
		t.Errorf("span delta = %+v", d["launch"])
	}
}
