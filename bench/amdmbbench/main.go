// Command amdmbbench is the repository's end-to-end benchmark. It runs
// one named workload against the suite's public API in this process,
// verifies every op's output against the pinned goldens, and prints
// every end-to-end metric (untraced run) or every per-layer metric
// (traced run) by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {"op_p50_ms": {"value": 301.2, "unit": "ms"}, ...}}
//
// Run it from the repository root, through bench/run.sh:
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload dissect --seed 1 --seconds 20 --trace 1 --trace-out dissect.trace.json
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --spread 5
//
// Exit status: 0 when every output was correct, 1 when any op failed or
// any output differed, 2 on a usage or set-up error (no result printed).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// warmupOps run after every set-up and before the window opens; they
	// count toward setup_s and toward no timed metric. One is enough:
	// paper-cold, restart-warm and dissect run every op on a fresh suite,
	// so only the Go runtime and the OS page cache carry over, and on the
	// daemons the first op serves the bundle daemon-warm reruns and fills
	// the compile store, the one store novel requests share.
	warmupOps = 1
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median, which keeps one slow first page-in from setting it.
	setupReps = 3
	// rssAfterOps is the timed op after which peak RSS is read (or the
	// window's end, if sooner). The daemon keeps every job it served, so
	// a fixed op count keeps a faster daemon, which serves more requests
	// in the window, from reading as a memory regression. paper-cold and
	// restart-warm may time fewer in a 20 s window; their ops each use a
	// fresh suite, so their memory does not grow with ops.
	rssAfterOps = 50
	// minBeyond is how many timed ops must lie beyond op_tail_ms's
	// quantile for the tail to be a measurement rather than a few
	// outliers; a run with fewer says so on standard error.
	minBeyond = 10
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amdmbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		spread  int
		updDigs bool
		calib   bool
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the traced window's Chrome trace JSON here")
	fs.IntVar(&spread, "spread", 0, "run every workload this many times, alternating seeds 1 and 2, and print each end-to-end metric's spread")
	fs.BoolVar(&updDigs, "update-digests", false, "regenerate "+digestsPath+" from one paper campaign")
	fs.BoolVar(&calib, "calibrator", false, "serve the calibration kernel on stdin/stdout (the helper process a run starts)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if calib {
		if err := serveCalibration(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "amdmbbench: bad arguments")
		fs.Usage()
		return 2
	}
	switch {
	case updDigs:
		if err := updateDigests("."); err != nil {
			fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
			return 1
		}
		return 0
	case spread > 0:
		return runSpread(o, spread, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "amdmbbench: unknown workload %q (have %s, all)\n", o.workload, workloadNames())
		return 2
	}
	ref, err := loadReference(".")
	if err != nil {
		fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
		return 2
	}
	cal, err := startCalibrator()
	if err != nil {
		fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
		return 2
	}
	res, err := runWorkload(w, o, ref, cal, stderr)
	if cerr := cal.close(); err == nil && cerr != nil {
		err = fmt.Errorf("calibration helper: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "amdmbbench: %s: %v\n", w.name, err)
		return 2
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d: %d ops, %d failed; calibration kernel median %.3f ms over %d samples\n",
		w.name, o.seed, o.seconds, o.trace, res.Attempted, res.Failed, cal.medianMS(), cal.count())
	printResult(stdout, o, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload is one process's run: the end-to-end run (three set-ups,
// one timed window) or the traced run (an untraced and a traced window,
// half the seconds each, each on its own set-up). Timed values come
// back scaled by the calibration.
func runWorkload(w workload, o options, ref *reference, cal *calibrator, stderr io.Writer) (result, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	cfg := config{seed: o.seed, ref: ref}
	if o.trace == 0 {
		var (
			inst     instance
			setups   []float64
			warmErrs []error
		)
		for r := 0; r < setupReps; r++ {
			if inst != nil {
				inst.close()
			}
			var d time.Duration
			var warmErr, err error
			if inst, d, warmErr, err = setUp(w, cfg); err != nil {
				return result{}, err
			}
			setups = append(setups, d.Seconds())
			warmErrs = append(warmErrs, warmErr)
		}
		p, err := measure(inst, w.clients, window, cal, stderr)
		if err != nil {
			return result{}, err
		}
		vals := endToEndValues(p, setups, w.tail)
		n := p.beyond(vals["op_tail_ms"])
		fmt.Fprintf(stderr, "amdmbbench: %s: op_tail_ms is p%g of %d timed ops, %d beyond it\n", w.name, 100*w.tail, len(p.lat), n)
		if n < minBeyond {
			fmt.Fprintf(stderr, "amdmbbench: %s: fewer than %d ops beyond p%g; lengthen --seconds\n", w.name, minBeyond, 100*w.tail)
		}
		return newResult(len(p.lat), p.failed, errors.Join(append(warmErrs, p.checkErr)...),
			endToEnd, vals, cal.medianMS(), stderr), nil
	}

	inst, _, warmU, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	u, err := measure(inst, w.clients, window/2, cal, stderr)
	if err != nil {
		return result{}, err
	}
	cfg.traced = true
	inst, _, warmT, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	t, err := measure(inst, w.clients, window/2, cal, stderr)
	if err != nil {
		return result{}, err
	}
	if o.traceOut != "" {
		if err := inst.tracer().WriteFile(o.traceOut); err != nil {
			return result{}, err
		}
	}
	return newResult(len(u.lat)+len(t.lat), u.failed+t.failed, errors.Join(warmU, u.checkErr, warmT, t.checkErr),
		perLayer, layerValues(u, t), cal.medianMS(), stderr), nil
}

// setUp builds an instance and runs the warm-up ops on it, timing both.
// A warm-up op that fails is an output failure, not a set-up error: it
// comes back as warmErr and the run goes on, so a wrong output is
// reported as such.
func setUp(w workload, cfg config) (inst instance, d time.Duration, warmErr, err error) {
	t0 := time.Now()
	if inst, err = w.setup(cfg); err != nil {
		return nil, 0, nil, err
	}
	var errs []error
	for i := 0; i < warmupOps; i++ {
		if err := inst.op(0, i); err != nil {
			errs = append(errs, fmt.Errorf("warm-up op %d: %w", i, err))
		}
	}
	return inst, time.Since(t0), errors.Join(errs...), nil
}

// measure runs the timed window on a set-up instance: every client
// loops closed until it has been active for the window (the op in
// flight then finishes and counts, so each client times at least one
// op). Client 0 continues after the warm-up ops. A client is not active
// while the calibration gate holds it: during a calibration, and while
// the calibration waits for the other clients' ops in flight. That time
// counts in no op, extends the client's window, and is left out of the
// wall time rates divide by. The instance is closed on return.
func measure(inst instance, clients int, window time.Duration, cal *calibrator, stderr io.Writer) (phase, error) {
	defer inst.close()
	before, spBefore := inst.totals(), inst.spans()
	var (
		mu     sync.Mutex
		p      phase
		wg     sync.WaitGroup
		active = make([]time.Duration, clients)
	)
	stop := cal.every()
	start := time.Now()
	for c := 0; c < clients; c++ {
		first := 0
		if c == 0 {
			first = warmupOps
		}
		wg.Add(1)
		go func(c, first int) {
			defer wg.Done()
			var held time.Duration
			defer func() { active[c] = time.Since(start) - held }()
			for i := first; i == first || time.Since(start)-held < window; i++ {
				held += cal.enter()
				t0 := time.Now()
				err := inst.op(c, i)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				cal.leave()
				if errors.Is(err, errExhausted) {
					return
				}
				mu.Lock()
				p.lat = append(p.lat, ms)
				if len(p.lat) == rssAfterOps {
					// A failed read leaves 0, and the read after the
					// window reports the error.
					p.rssMB, _ = peakRSSMB()
				}
				if err != nil {
					if p.failed < 3 {
						fmt.Fprintf(stderr, "amdmbbench: client %d op %d: %v\n", c, i, err)
					}
					p.failed++
				}
				mu.Unlock()
			}
		}(c, first)
	}
	wg.Wait()
	for _, a := range active {
		p.wall += a / time.Duration(clients)
	}
	err := stop()
	if p.rssMB == 0 {
		var rerr error
		p.rssMB, rerr = peakRSSMB()
		err = errors.Join(err, rerr)
	}
	p.delta = inst.totals().sub(before)
	p.spans = inst.spans().sub(spBefore)
	p.checkErr = inst.check()
	return p, err
}

// newResult assembles the JSON result, scaling timed metrics by the
// calibration kernel's median time. Failed checks outside the window
// (warm-up ops, the deferred check) count as one more failed op.
func newResult(attempted, failed int, checkErr error, defs []metric, vals map[string]float64, kernelMS float64, stderr io.Writer) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	if checkErr != nil {
		fmt.Fprintf(stderr, "amdmbbench: output check: %v\n", checkErr)
		res.Failed++
		res.Attempted++
	}
	res.Correct = res.Failed == 0
	for _, m := range defs {
		res.Metrics[m.name] = value{Value: scale(vals[m.name], m.unit, kernelMS), Unit: m.unit}
	}
	return res
}

// printResult prints the metric table, then the JSON line last.
func printResult(w io.Writer, o options, res result) {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, _ := json.Marshal(res) // plain numbers and strings; every value is finite
	fmt.Fprintf(w, "%s\n", line)
}

// childArgs rebuilds the flags for one child process.
func childArgs(o options, workload string, seed int64, trace int) []string {
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
	if o.traceOut != "" && trace == 1 {
		dir, file := filepath.Split(o.traceOut)
		args = append(args, "--trace-out", filepath.Join(dir, workload+"."+file))
	}
	return args
}

// runAll runs every workload in sequence, each in its own process.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, childArgs(o, w.name, o.seed, o.trace)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "amdmbbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runSpread runs every workload n times, alternating seeds 1 and 2, and
// prints each end-to-end metric's median, quartiles, IQR/median and
// max/min - 1 over the runs.
func runSpread(o options, n int, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "amdmbbench: --spread needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "amdmbbench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		vals := make(map[string][]float64)
		for k := 0; k < n; k++ {
			seed := int64(1 + k%2)
			var out bytes.Buffer
			cmd := exec.Command(self, childArgs(o, w.name, seed, 0)...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil || !res.Correct {
				fmt.Fprintf(stderr, "amdmbbench: %s seed %d: run failed: %v\n", w.name, seed, errors.Join(runErr, err))
				code = 1
				continue
			}
			fmt.Fprintf(stderr, "amdmbbench: %s run %d/%d (seed %d) done\n", w.name, k+1, n, seed)
			for name, v := range res.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
		}
		fmt.Fprintf(stdout, "## %s (%d runs)\n", w.name, len(vals[endToEnd[0].name]))
		fmt.Fprintf(stdout, "%-16s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min-1")
		for _, m := range endToEnd {
			xs := vals[m.name]
			if len(xs) < 2 {
				continue
			}
			q := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Fprintf(stdout, "%-16s %12.4f %12.4f %12.4f %8.1f%% %8.1f%%\n",
				m.name, q[1], q[0], q[2], 100*(q[2]-q[0])/q[1], 100*(hi/lo-1))
		}
	}
	return code
}
