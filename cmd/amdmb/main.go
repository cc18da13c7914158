// Command amdmb runs the AMD GPU micro-benchmark suite on the simulated
// RV670/RV770/RV870 devices and regenerates every table and figure of the
// paper "A Micro-benchmark Suite for AMD GPUs" (Taylor & Li, ICPPW 2010).
//
// Usage:
//
//	amdmb [flags] <experiment>...
//	amdmb campaign -figs fig7,fig8,fig11,fig16 [flags]
//	amdmb infer [flags]
//	amdmb soak [flags]
//
// Experiments: table1 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
// fig15a fig15b fig16 fig17 clausectl trans blocks consts summary ablate
// all
//
// Every invocation plans the figures it prints, and the figures summary
// reads, as one campaign (internal/campaign): one resilient sweep in
// which each figure launches once, printed in sorted experiment order.
// The ablation study is one of those figures (`ablate`): ablate prints
// its table from the figure's runs, so -max-domain, -retries,
// -cache-dir and -trace apply to it as to any figure.
//
// The campaign subcommand plans the figures named in -figs the same
// way, so work shared between figures runs once through the pipeline's
// stores; `-plan` prints the schedule without running. See campaign.go and
// internal/campaign; `amdmb campaign -h` lists its flags. Beyond the paper's figures, the
// campaign registry includes the extensions trans, blocks, consts and
// ablate (each mechanism on at x=0, off at x=1; requestable from amdmbd
// like any figure) and the memory-hierarchy dissection figures
// hier-lat, hier-wset, hier-line and hier-stride (internal/hier); a
// trailing-'*' glob like `-figs 'hier-*'` plans a whole family.
//
// The infer subcommand runs the memory-hierarchy dissection and
// recovers L1/L2 capacity, line size, associativity and the miss-hit
// latency delta from the measured curves alone, diffing the recovered
// model against the device table and exiting nonzero on any mismatch —
// the suite measuring, then proving, its own cache model. See infer.go
// and internal/hier; `amdmb infer -h` lists its flags.
//
// The soak subcommand runs seeded adversarial stress campaigns —
// generated kernels under fault injection and kill/resume cycles, with
// continuous invariant oracles and crash-torture of child amdmb
// processes; see soak.go and
// internal/soak. `amdmb soak -h` lists its flags.
//
// Flags:
//
//	-csv               emit CSV instead of ASCII plots
//	-iters N           kernel iterations per timing (default 5000, the paper's)
//	-runs              also print per-point run details (GPRs, waves, bottleneck)
//	-o dir             also write <dir>/<figure>.csv and a matching gnuplot script
//	-timeout N         per-launch watchdog budget in simulated cycles (0 = default)
//	-retries N         retry attempts for transient launch failures (default 2)
//	-faults plan       arm deterministic fault injection, e.g.
//	                   'seed=42;hang:prob=0.01;transient:prob=0.05'
//	-no-cache          disable content-addressed artifact caching (recompute all)
//	-cache-dir dir     persistent on-disk simulate-result cache: results load
//	                   from dir before computing and write through, so an
//	                   interrupted run resumes and repeat runs (and daemon
//	                   restarts) replay instead of recompute
//	-trace file        record a span per sweep point holding its launches, with
//	                   the pipeline stages nested inside, as Chrome
//	                   trace_event JSON; open in Perfetto or chrome://tracing
//	-metrics           print the suite's metrics registry (cache, fault, retry
//	                   and sweep counters plus latency histograms) as a table
//	-metrics-json      like -metrics but as JSON (implies -metrics)
//	-progress          show a live progress line for the invocation's sweep on
//	                   stderr (points done/total, failures, cache hit rate, ETA)
//	-max-domain N      clamp sweep domains to at most NxN (CI smoke runs); the
//	                   hier-* probes keep their own domains
//	-cpuprofile file   write a CPU profile of the run (go tool pprof format)
//	-memprofile file   write a heap profile on exit (go tool pprof format)
//
// Exit status: 0 on success, 1 on a fatal error, 2 on usage errors, 3
// when the sweeps completed but recorded per-point failures (printed in
// the failure-summary table).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/report"
)

// cli carries the parsed flags and output streams so the whole command
// is runnable (and testable) without touching process globals.
type cli struct {
	csv         bool
	showRuns    bool
	iters       int
	outDir      string
	timeout     uint64
	retries     int
	faults      string
	noCache     bool
	cacheDir    string
	tracePath   string
	metrics     bool
	metricsJSON bool
	progress    bool
	maxDomain   int
	cpuprofile  string
	memprofile  string

	out    io.Writer
	errOut io.Writer
}

type experiment struct {
	name string
	desc string
	// figs are the registry figures the experiment reads. An invocation
	// plans every selected experiment's figures as one campaign, so each
	// figure launches once however many experiments read it.
	figs []string
	run  func(s *core.Suite, r *ran) error
}

// ran is an invocation's executed campaign, by figure name.
type ran struct {
	figs campaign.Figures
	runs map[string][]core.Run
}

// figExperiment is the experiment that prints one registry figure.
func (c *cli) figExperiment(name, desc string) experiment {
	return experiment{name: name, desc: desc, figs: []string{name}, run: func(_ *core.Suite, r *ran) error {
		if err := c.emitFigure(r.figs[name]); err != nil {
			return err
		}
		if c.showRuns {
			c.emitRuns(r.runs[name])
		}
		return nil
	}}
}

func (c *cli) experiments() []experiment {
	return []experiment{
		{"table1", "GPU hardware features", nil, func(s *core.Suite, _ *ran) error {
			fmt.Fprintln(c.out, s.HardwareTable().Format())
			return nil
		}},
		{"fig2", "example ISA disassembly", nil, func(*core.Suite, *ran) error {
			return c.printFig2()
		}},
		c.figExperiment("fig7", "ALU:Fetch ratio, texture reads"),
		c.figExperiment("fig8", "ALU:Fetch ratio, 4x16 block"),
		c.figExperiment("fig9", "ALU:Fetch ratio, global read + stream write"),
		c.figExperiment("fig10", "ALU:Fetch ratio, global read + global write"),
		c.figExperiment("fig11", "texture fetch latency"),
		c.figExperiment("fig12", "global read latency"),
		c.figExperiment("fig13", "streaming store latency"),
		c.figExperiment("fig14", "global write latency"),
		c.figExperiment("fig15a", "domain size, pixel shader"),
		c.figExperiment("fig15b", "domain size, compute shader"),
		c.figExperiment("fig16", "register pressure"),
		c.figExperiment("fig17", "register pressure, 4x16 block"),
		c.figExperiment("clausectl", "clause usage control (flat)"),
		c.figExperiment("trans", "extension: transcendental vs basic ALU chains"),
		c.figExperiment("blocks", "extension: compute block-size sweep"),
		c.figExperiment("consts", "extension: constant count sweep (flat)"),
		{"summary", "one-screen paper-vs-measured reproduction digest", campaign.ClaimFigs(campaign.Claims), func(_ *core.Suite, r *ran) error {
			ms, err := campaign.Measure(r.figs, campaign.Claims)
			if err != nil {
				return err
			}
			fmt.Fprint(c.out, campaign.ClaimsTable(ms).Format())
			return nil
		}},
		{"ablate", "extension: hardware-mechanism ablation study", []string{"ablate"}, func(_ *core.Suite, r *ran) error {
			res, err := core.AblationResults(r.runs["ablate"])
			if err != nil {
				return err
			}
			fmt.Fprintln(c.out, core.AblationTable(res).Format())
			return nil
		}},
	}
}

func (c *cli) emitFigure(fig *report.Figure) error {
	if c.csv {
		fmt.Fprint(c.out, fig.CSV())
	} else {
		fmt.Fprint(c.out, fig.ASCIIPlot(72, 20))
	}
	fmt.Fprintln(c.out)
	if c.outDir != "" {
		return writeFigureFiles(fig, c.outDir)
	}
	return nil
}

// writeFigureFiles saves the figure's CSV and a gnuplot script that plots
// it, mirroring how the paper's figures were produced.
func writeFigureFiles(fig *report.Figure, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	csvName := fig.ID + ".csv"
	if err := os.WriteFile(filepath.Join(dir, csvName), []byte(fig.CSV()), 0o644); err != nil {
		return err
	}
	gp := fig.GnuplotScript(csvName)
	return os.WriteFile(filepath.Join(dir, fig.ID+".gp"), []byte(gp), 0o644)
}

func (c *cli) emitRuns(runs []core.Run) {
	t := &report.Table{
		Header: []string{"series", "x", "seconds", "GPRs", "waves", "hit", "bottleneck"},
	}
	for _, r := range runs {
		if r.Failed() {
			t.AddRow(r.Card.Label(), fmt.Sprintf("%g", r.X), "FAILED", "-", "-", "-", r.Err)
			continue
		}
		t.AddRow(r.Card.Label(), fmt.Sprintf("%g", r.X), fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%d", r.GPRs), fmt.Sprintf("%d", r.Waves),
			fmt.Sprintf("%.3f", r.HitRate), r.Bottleneck)
	}
	fmt.Fprintln(c.out, t.Format())
}

// failureTable renders the per-point failure records a resilient sweep
// completed around.
func failureTable(failures []core.Run) *report.Table {
	t := &report.Table{
		Title:  "Failure summary: points recorded as failed (sweeps completed)",
		Header: []string{"card", "x", "attempts", "error"},
	}
	for _, r := range failures {
		t.AddRow(r.Card.Label(), fmt.Sprintf("%g", r.X), fmt.Sprintf("%d", r.Attempts), r.Err)
	}
	return t
}

// printFig2 reproduces the paper's example disassembly: a three-input
// pixel-shader float4 kernel.
func (c *cli) printFig2() error {
	k, err := kerngen.Generic(kerngen.Params{
		Name: "fig2", Mode: il.Pixel, Type: il.Float4,
		Inputs: 3, Outputs: 1, ALUOps: 3,
	})
	if err != nil {
		return err
	}
	prog, err := ilc.Compile(k, device.Lookup(device.RV770))
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, isa.Disassemble(prog))
	st := prog.Stats()
	fmt.Fprintf(c.out, "; GPRs=%d ALU bundles=%d fetches=%d SKA ALU:Fetch=%.2f\n",
		st.GPRs, st.ALUBundles, st.FetchOps, st.ALUFetchSKA)
	return nil
}

// commonFlags registers the flags shared by the main command and the
// campaign subcommand — the whole suite configuration surface — so the
// two cannot drift apart.
func (c *cli) commonFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of ASCII plots")
	fs.IntVar(&c.iters, "iters", 0, "kernel iterations per timing (default 5000)")
	fs.StringVar(&c.outDir, "o", "", "also write <dir>/<figure>.csv and a matching gnuplot script")
	fs.Uint64Var(&c.timeout, "timeout", 0, "per-launch watchdog budget in simulated cycles (0 = simulator default)")
	fs.IntVar(&c.retries, "retries", 2, "retry attempts for transient launch failures")
	fs.StringVar(&c.faults, "faults", "", "deterministic fault-injection plan, e.g. 'seed=42;hang:prob=0.01;transient:prob=0.05'")
	fs.BoolVar(&c.noCache, "no-cache", false, "disable content-addressed artifact caching (every stage recomputes)")
	fs.StringVar(&c.cacheDir, "cache-dir", "", "persistent on-disk simulate-result cache directory; rerunning over it resumes an interrupted run (-no-cache disables it)")
	fs.StringVar(&c.tracePath, "trace", "", "write per-launch spans as Chrome trace_event JSON to this file")
	fs.BoolVar(&c.metrics, "metrics", false, "print the suite's metrics registry after the experiments")
	fs.BoolVar(&c.metricsJSON, "metrics-json", false, "print the metrics registry as JSON (implies -metrics)")
	fs.BoolVar(&c.progress, "progress", false, "show a live per-sweep progress line on stderr")
	fs.IntVar(&c.maxDomain, "max-domain", 0, "clamp sweep domains to at most NxN, hier-* probes excepted (0 = no clamp)")
}

// newSuite builds the suite the parsed flags describe. It fails only on
// a negative -iters or -max-domain or a bad fault plan: usage errors.
func (c *cli) newSuite() (*core.Suite, error) {
	if c.iters < 0 || c.maxDomain < 0 {
		return nil, fmt.Errorf("-iters and -max-domain must not be negative (got %d, %d)", c.iters, c.maxDomain)
	}
	s := core.NewSuite()
	s.Iterations = c.iters
	s.Retries = c.retries
	s.DeadlineCycles = c.timeout
	s.DisableArtifactCache = c.noCache
	s.PersistDir = c.cacheDir
	if c.tracePath != "" {
		s.Tracer = obs.NewTracer()
	}
	if c.faults != "" {
		plan, err := fault.Parse(c.faults)
		if err != nil {
			return nil, err
		}
		s.Faults = plan
	}
	return s, nil
}

// runOptions is the campaign run the flags describe: -progress renders
// on stderr.
func (c *cli) runOptions() (opts campaign.RunOptions) {
	if c.progress {
		opts.ProgressOut = c.errOut
	}
	return opts
}

// plan resolves the named figures on s, restricted to archs when any
// are named, and schedules them as one campaign at the -max-domain
// clamp.
func (c *cli) plan(s *core.Suite, figs, archs []string) (*campaign.Plan, error) {
	specs, err := campaign.Resolve(s, figs, archs)
	if err != nil {
		return nil, err
	}
	return campaign.NewPlan(specs, campaign.Options{MaxDomain: c.maxDomain})
}

// epilogue finishes a run: trace export, metrics, and the summary of the
// campaign's failure records. The return value is the exit status — 0
// clean, 1 on an export error, 3 when sweeps completed around recorded
// failures.
func (c *cli) epilogue(s *core.Suite, failures []core.Run) int {
	if c.tracePath != "" {
		if err := s.Tracer.WriteFile(c.tracePath); err != nil {
			fmt.Fprintf(c.errOut, "amdmb: -trace: %v\n", err)
			return 1
		}
	}
	if c.metrics || c.metricsJSON {
		snap := s.Metrics().Snapshot()
		if c.metricsJSON {
			data, err := snap.JSON()
			if err != nil {
				fmt.Fprintf(c.errOut, "amdmb: -metrics-json: %v\n", err)
				return 1
			}
			fmt.Fprintln(c.out, string(data))
		} else {
			fmt.Fprintln(c.out, snap.Format())
		}
	}
	if len(failures) > 0 {
		fmt.Fprintln(c.out, failureTable(failures).Format())
		fmt.Fprintf(c.errOut, "amdmb: %d point(s) failed and were recorded; sweeps completed\n", len(failures))
		return 3
	}
	return 0
}

// run is the whole command: parse flags, select experiments, execute
// them on one suite, and summarize failures. It returns the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 {
		switch argv[0] {
		case "soak":
			return runSoak(argv[1:], stdout, stderr)
		case "campaign":
			return runCampaignCmd(argv[1:], stdout, stderr)
		case "infer":
			return runInferCmd(argv[1:], stdout, stderr)
		}
	}
	c := &cli{out: stdout, errOut: stderr}
	fs := flag.NewFlagSet("amdmb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c.commonFlags(fs)
	fs.BoolVar(&c.showRuns, "runs", false, "print per-point run details")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	exps := c.experiments()
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: amdmb [flags] <experiment>...")
		fmt.Fprintln(stderr, "       amdmb campaign -figs a,b,... [flags]   (multi-figure sweep; amdmb campaign -h)")
		fmt.Fprintln(stderr, "       amdmb infer [flags]   (recover the cache model from measured curves; amdmb infer -h)")
		fmt.Fprintln(stderr, "       amdmb soak [flags]   (adversarial stress campaigns; amdmb soak -h)")
		fmt.Fprintln(stderr, "experiments:")
		for _, e := range exps {
			fmt.Fprintf(stderr, "  %-10s %s\n", e.name, e.desc)
		}
		fmt.Fprintln(stderr, "  all        run everything")
		return 2
	}

	byName := map[string]experiment{}
	var order []string
	for _, e := range exps {
		byName[e.name] = e
		order = append(order, e.name)
	}

	var selected []string
	for _, a := range args {
		if a == "all" {
			selected = order
			break
		}
		if _, ok := byName[strings.ToLower(a)]; !ok {
			fmt.Fprintf(stderr, "amdmb: unknown experiment %q\n", a)
			return 2
		}
		selected = append(selected, strings.ToLower(a))
	}
	sort.Strings(selected)

	// Profiles cover the experiment runs only, not flag parsing; both are
	// finalized before run returns so main's os.Exit never truncates them.
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "amdmb: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "amdmb: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if c.memprofile != "" {
		defer func() {
			if err := writeMemProfile(c.memprofile); err != nil {
				fmt.Fprintf(stderr, "amdmb: -memprofile: %v\n", err)
			}
		}()
	}

	s, err := c.newSuite()
	if err != nil {
		fmt.Fprintf(stderr, "amdmb: %v\n", err)
		return 2
	}

	var figs []string
	for _, name := range selected {
		for _, f := range byName[name].figs {
			if !slices.Contains(figs, f) {
				figs = append(figs, f)
			}
		}
	}
	r := &ran{figs: campaign.Figures{}, runs: map[string][]core.Run{}}
	var failures []core.Run
	if len(figs) > 0 {
		plan, err := c.plan(s, figs, nil)
		if err != nil {
			fmt.Fprintf(stderr, "amdmb: %v\n", err)
			return 1
		}
		res, err := plan.RunCtx(context.Background(), s, c.runOptions())
		if err != nil {
			fmt.Fprintf(stderr, "amdmb: %v\n", err)
			return 1
		}
		for i, sp := range plan.Specs {
			r.figs[sp.Name], r.runs[sp.Name] = res.Figures[i], res.Runs[i]
		}
		failures = res.Failures
	}
	for _, name := range selected {
		if err := byName[name].run(s, r); err != nil {
			fmt.Fprintf(stderr, "amdmb: %s: %v\n", name, err)
			return 1
		}
	}
	return c.epilogue(s, failures)
}

// writeMemProfile snapshots the heap after a final GC, so the profile
// reflects live retention rather than garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
