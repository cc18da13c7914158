package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"amdgpubench/internal/obs"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = "../.."

func TestNovelDomainsAreSeededStratifiedAndNeverRepeat(t *testing.T) {
	a, b := novelDomains(1), novelDomains(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different domain lists")
	}
	if reflect.DeepEqual(a, novelDomains(2)) {
		t.Fatal("seeds 1 and 2 drew the same domain list")
	}
	const strata, width = 32, (novelHi - novelLo + 1) / 32
	if len(a) != novelHi-novelLo+1 {
		t.Fatalf("%d domains, want %d", len(a), novelHi-novelLo+1)
	}
	seen := make(map[int]bool)
	for i, d := range a {
		if d < novelLo || d > novelHi {
			t.Fatalf("max_domain %d outside [%d, %d]", d, novelLo, novelHi)
		}
		if s := (d - novelLo) / width; s != i%strata {
			t.Fatalf("request %d: max_domain %d from stratum %d, want %d", i, d, s, i%strata)
		}
		if seen[d] {
			t.Fatalf("max_domain %d drawn twice", d)
		}
		seen[d] = true
	}
}

// stallInstance is a fake workload whose client c's op sleeps opTime[c];
// it records each client's total op time.
type stallInstance struct {
	opTime []time.Duration
	mu     sync.Mutex
	busy   []time.Duration
}

func (s *stallInstance) op(c, _ int) error {
	t0 := time.Now()
	time.Sleep(s.opTime[c])
	s.mu.Lock()
	s.busy[c] += time.Since(t0)
	s.mu.Unlock()
	return nil
}

func (s *stallInstance) totals() counters    { return counters{} }
func (s *stallInstance) spans() spanTable    { return spanTable{} }
func (s *stallInstance) tracer() *obs.Tracer { return nil }
func (s *stallInstance) check() error        { return nil }
func (s *stallInstance) close()              {}

// TestWallExcludesCalibrationStalls runs two clients, one with slow ops
// and one with fast ones. Each calibration waits for the slow op in
// flight while the fast client is held at the gate. The wall time rates
// divide by must be the clients' mean busy time, not the elapsed time,
// and every client must be busy for the whole window.
func TestWallExcludesCalibrationStalls(t *testing.T) {
	inst := &stallInstance{
		opTime: []time.Duration{200 * time.Millisecond, 2 * time.Millisecond},
		busy:   make([]time.Duration, 2),
	}
	cal := &calibrator{period: 200 * time.Millisecond, kernel: func() (float64, error) {
		time.Sleep(10 * time.Millisecond)
		return 10, nil
	}}
	const window = time.Second
	start := time.Now()
	p, err := measure(inst, 2, window, cal, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed-inst.busy[1] < 100*time.Millisecond {
		t.Fatalf("fast client busy %v of %v: the calibrations did not stall it", inst.busy[1], elapsed)
	}
	// Time a client spends between ops, outside both the op and the
	// gate, is active but not busy.
	const slack = 40 * time.Millisecond
	busy := (inst.busy[0] + inst.busy[1]) / 2
	if d := p.wall - busy; d < 0 || d > slack {
		t.Errorf("wall %v, clients' mean busy time %v: the wall must exclude calibration stalls", p.wall, busy)
	}
	for c, b := range inst.busy {
		if b < window-slack {
			t.Errorf("client %d busy %v, less than the %v window", c, b, window)
		}
	}
}

func TestDissectOrderIsSeededAndBalanced(t *testing.T) {
	a, b, c := newDissectOrder(7), newDissectOrder(7), newDissectOrder(8)
	differs := false
	for i := 0; i < 300; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("op %d: the same seed gave %v and %v", i, a.at(i), b.at(i))
		}
		differs = differs || a.at(i) != c.at(i)
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same card order")
	}
	for blk := 0; blk < 100; blk++ {
		seen := make(map[any]bool)
		for i := 3 * blk; i < 3*blk+3; i++ {
			seen[a.at(i)] = true
		}
		if len(seen) != len(dissectArchs) {
			t.Fatalf("block %d does not visit every card once", blk)
		}
	}
}

func TestReferenceCheck(t *testing.T) {
	r := &reference{
		golden: map[string]string{"fig7": "# fig7: t\nx\n\n"},
		digest: map[string]string{"fig9": digestOf("# fig9: t\nx\n")},
	}
	if err := r.check("fig7", "# fig7: t\nx\n"); err != nil {
		t.Errorf("golden match (CSV plus the CLI's blank line) rejected: %v", err)
	}
	if err := r.check("fig9", "# fig9: t\nx\n"); err != nil {
		t.Errorf("digest match rejected: %v", err)
	}
	for name, csv := range map[string]string{"fig7": "# fig7: t\ny\n", "fig9": "# fig9: t\ny\n", "fig10": "x"} {
		if r.check(name, csv) == nil {
			t.Errorf("%s: mismatching output accepted", name)
		}
	}
	if _, err := loadReference(repoRoot); err != nil {
		t.Fatalf("pinned references: %v", err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// program's output in step: same workloads, same metrics, same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, names, units, betters []string) {
		if len(names) != len(got) {
			t.Fatalf("%s: declared %d metrics, program prints %d", kind, len(names), len(got))
		}
		for i, m := range got {
			if names[i] != m.name || units[i] != m.unit || betters[i] != m.better {
				t.Errorf("%s %d: declared %s %s %s, program %s %s %s", kind, i, names[i], units[i], betters[i], m.name, m.unit, m.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range bj.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range bj.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", perLayer, n, u, b)
}

// TestTracedDaemonFoldsSpans runs two clients against a traced daemon
// that folds its tracer after every op, and checks that every op's
// campaign span is counted once across the folds.
func TestTracedDaemonFoldsSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon")
	}
	ref, err := loadReference(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(config{traced: true, ref: ref}, nil)
	d.foldAt = 1
	if err := d.op(0, 0); err != nil {
		t.Fatalf("warm-up op: %v", err)
	}
	p, err := measure(d, warmClients, 500*time.Millisecond, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || len(p.lat) < warmClients {
		t.Fatalf("%d ops, %d failed; want at least %d ops, none failed", len(p.lat), p.failed, warmClients)
	}
	if got := p.spans["campaign"].Count; got != len(p.lat) {
		t.Errorf("%d campaign spans over %d ops, want one per op", got, len(p.lat))
	}
	if d.s.Tracer.Len() != 0 {
		t.Errorf("tracer holds %d spans after a fold at every op", d.s.Tracer.Len())
	}
}

// TestWorkloadsSmoke sets up every workload with tracing on, which runs
// and verifies the warm-up ops, then times one op per client and checks
// that nothing failed and every metric is finite.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ref, err := loadReference(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			inst, setup, warmErr, err := setUp(w, config{seed: 3, traced: true, ref: ref})
			if err != nil {
				t.Fatal(err)
			}
			if warmErr != nil {
				t.Fatalf("warm-up ops: %v", warmErr)
			}
			p, err := measure(inst, w.clients, 0, nil, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if p.checkErr != nil {
				t.Fatalf("output check: %v", p.checkErr)
			}
			if len(p.lat) != w.clients || p.failed != 0 {
				t.Fatalf("%d ops, %d failed; want %d ops, none failed", len(p.lat), p.failed, w.clients)
			}
			if p.spans["launch"].Count == 0 {
				t.Error("traced window recorded no launch spans")
			}
			vals := layerValues(p, p)
			for k, v := range endToEndValues(p, []float64{setup.Seconds()}, w.tail) {
				vals[k] = v
			}
			for k, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", k, v)
				}
			}
			for _, m := range endToEnd {
				if vals[m.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, vals[m.name])
				}
			}
		})
	}
}
