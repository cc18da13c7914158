package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// metric names one reported number. The lists below are what
// BENCHMARK.json declares; a test keeps the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd is what a user of the suite sees, all host time: printed by
// every untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"launches_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is named by module; *_ms and counts are per timed op, summed
// over workers. Every ratio comes with its base, the lookups per op it
// divides by. Printed by every traced run; a layer a workload does not
// exercise reads 0 there.
var perLayer = []metric{
	{"ilc.compile_ms", "ms", "lower"},
	{"ilc.compiled", "count", "lower"},
	{"pipeline.compile_hit_rate", "ratio", "higher"},
	{"pipeline.compile_hit_rate.base", "count", "lower"},
	{"cache.replay_ms", "ms", "lower"},
	{"cache.replayed", "count", "lower"},
	{"cache.inputs_replayed", "count", "lower"},
	{"cache.inputs_reused", "count", "higher"},
	{"pipeline.replay_hit_rate", "ratio", "higher"},
	{"pipeline.replay_hit_rate.base", "count", "lower"},
	{"pipeline.prefix_hit_rate", "ratio", "higher"},
	{"pipeline.prefix_hit_rate.base", "count", "lower"},
	{"sim.trace_ms", "ms", "lower"},
	{"sim.simulate_ms", "ms", "lower"},
	{"sim.simulated", "count", "lower"},
	{"pipeline.simulate_hit_rate", "ratio", "higher"},
	{"pipeline.simulate_hit_rate.base", "count", "lower"},
	{"pipeline.persist_hit_rate", "ratio", "higher"},
	{"pipeline.persist_hit_rate.base", "count", "lower"},
	{"pipeline.persist_writes", "count", "lower"},
	{"pipeline.persist_errors", "count", "lower"},
	{"kerngen.generate_ms", "ms", "lower"},
	{"kerngen.generated", "count", "lower"},
	{"core.points_completed", "count", "higher"},
	{"core.points_failed", "count", "lower"},
	{"core.retries", "count", "lower"},
	{"campaign.plan_ms", "ms", "lower"},
	{"campaign.run_ms", "ms", "lower"},
	{"campaign.units", "count", "lower"},
	{"campaign.deduped", "count", "higher"},
	{"hier.infer_ms", "ms", "lower"},
	{"hier.launches", "count", "lower"},
	{"daemon.submit_ms", "ms", "lower"},
	{"daemon.wait_ms", "ms", "lower"},
	{"daemon.fetch_ms", "ms", "lower"},
	{"daemon.requests_per_op", "count", "lower"},
	// From the traced run's spans: self time along the blocking path.
	{"kerngen.self_ms", "ms", "lower"},
	{"ilc.self_ms", "ms", "lower"},
	{"sim.trace_self_ms", "ms", "lower"},
	{"cache.self_ms", "ms", "lower"},
	{"sim.self_ms", "ms", "lower"},
	{"cal.self_ms", "ms", "lower"},
	{"core.unit_overhead_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// phase is one timed window of a workload.
type phase struct {
	lat    []float64 // ms per op, every client
	failed int
	// wall is the clients' mean active time: from the window's start to
	// a client's last op, minus the time it was held at the calibration
	// gate.
	wall  time.Duration
	delta counters  // layer counters over the window
	spans spanTable // span aggregates over the window (traced only)
	rssMB float64   // peak RSS, read after rssAfterOps ops or at the end
	// checkErr is the verification deferred past the window.
	checkErr error
}

func (p phase) ops() float64 { return float64(len(p.lat)) }

// beyond counts the ops slower than latency ms.
func (p phase) beyond(ms float64) int {
	n := 0
	for _, x := range p.lat {
		if x > ms {
			n++
		}
	}
	return n
}

// endToEndValues computes the end-to-end metrics of an untraced run;
// op_tail_ms is the tail quantile of latency.
func endToEndValues(p phase, setups []float64, tail float64) map[string]float64 {
	wall := p.wall.Seconds()
	return map[string]float64{
		"setup_s":        percentile(setups, 0.5),
		"op_p50_ms":      percentile(p.lat, 0.5),
		"op_tail_ms":     percentile(p.lat, tail),
		"ops_per_s":      p.ops() / wall,
		"launches_per_s": float64(p.delta["launches"]) / wall,
		"peak_rss_mb":    p.rssMB,
	}
}

// layerValues computes the per-layer metrics: counters and phase
// timers from the untraced window u, span self times from the traced
// window t.
func layerValues(u, t phase) map[string]float64 {
	d, n := u.delta, u.ops()
	perOp := func(keys ...string) float64 {
		var sum int64
		for _, k := range keys {
			sum += d[k]
		}
		return float64(sum) / n
	}
	ms := func(keys ...string) float64 { return perOp(keys...) / 1e6 }
	m := make(map[string]float64)
	rate := func(name string, hits, lookups int64) {
		m[name] = ratio(hits, lookups)
		m[name+".base"] = float64(lookups) / n
	}
	store := func(name, stage string) {
		p := "pipeline." + stage + "."
		hits := d[p+"hits"] + d[p+"coalesced"]
		rate(name, hits, hits+d[p+"misses"])
	}

	m["ilc.compile_ms"] = ms("pipeline.compile.compute_ns")
	m["ilc.compiled"] = perOp("pipeline.compile.misses")
	store("pipeline.compile_hit_rate", "compile")

	m["cache.replay_ms"] = ms("pipeline.replay.compute_ns")
	m["cache.replayed"] = perOp("pipeline.replay.misses")
	m["cache.inputs_replayed"] = perOp("pipeline.replay-prefix.inputs_replayed")
	m["cache.inputs_reused"] = perOp("pipeline.replay-prefix.inputs_reused")
	store("pipeline.replay_hit_rate", "replay")
	rate("pipeline.prefix_hit_rate", d["pipeline.replay-prefix.hits"],
		d["pipeline.replay-prefix.hits"]+d["pipeline.replay-prefix.misses"])

	m["sim.trace_ms"] = ms("pipeline.trace.compute_ns")
	// A persist hit counts as a memory-store miss without computing, so
	// simulations are the compute histogram's observations plus the
	// launches that bypassed the store.
	m["sim.simulate_ms"] = ms("pipeline.simulate.compute_ns", "pipeline.simulate.bypass_ns")
	m["sim.simulated"] = perOp("pipeline.simulate.compute_latency_ns.count", "pipeline.simulate.bypassed")
	store("pipeline.simulate_hit_rate", "simulate")

	rate("pipeline.persist_hit_rate", d["pipeline.persist.hits"],
		d["pipeline.persist.hits"]+d["pipeline.persist.misses"])
	m["pipeline.persist_writes"] = perOp("pipeline.persist.writes")
	m["pipeline.persist_errors"] = perOp("pipeline.persist.errors")

	m["kerngen.generate_ms"] = ms("pipeline.generate.compute_ns")
	m["kerngen.generated"] = perOp("pipeline.generate.misses")

	m["core.points_completed"] = perOp("core.sweep.points.completed")
	m["core.points_failed"] = perOp("core.sweep.points.failed")
	m["core.retries"] = perOp("core.sweep.retries")

	m["campaign.plan_ms"] = ms("campaign.plan_ns")
	m["campaign.run_ms"] = ms("campaign.run_ns")
	m["campaign.units"] = perOp("campaign.units.planned")
	m["campaign.deduped"] = perOp("campaign.points.deduped")

	m["hier.infer_ms"] = ms("hier.infer_ns")
	m["hier.launches"] = perOp("hier.launches")

	m["daemon.submit_ms"] = ms("daemon.submit_ns")
	m["daemon.wait_ms"] = ms("daemon.wait_ns")
	m["daemon.fetch_ms"] = ms("daemon.fetch_ns")
	m["daemon.requests_per_op"] = perOp("daemon.http.requests")

	nt := t.ops()
	self := func(span string) float64 { return t.spans[span].SelfUS / nt / 1e3 }
	m["kerngen.self_ms"] = self("generate")
	m["ilc.self_ms"] = self("compile")
	m["sim.trace_self_ms"] = self("trace")
	m["cache.self_ms"] = self("replay")
	m["sim.self_ms"] = self("simulate")
	m["cal.self_ms"] = self("launch")
	m["core.unit_overhead_ms"] = 0
	if t.spans["unit"].Count > 0 { // only campaigns schedule units
		m["core.unit_overhead_ms"] = (t.spans["unit"].TotalUS - t.spans["launch"].TotalUS) / nt / 1e3
	}
	m["trace.overhead_pct"] = (percentile(t.lat, 0.5)/percentile(u.lat, 0.5) - 1) * 100
	return m
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
