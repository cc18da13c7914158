package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"amdgpubench/internal/fault"
	"amdgpubench/internal/soak"
)

// The soak subcommand: seeded adversarial stress campaigns over the
// whole pipeline (internal/soak), plus the out-of-process crash-torture
// harness that SIGKILLs child amdmb sweeps and verifies clean resume.
//
//	amdmb soak -seed 42 -steps 20 -faults 'seed=9;transient:prob=0.2' \
//	           -kill-every 3 -churn 2 -bundles out/bundles
//	amdmb soak -plan 5 -seed 42          # print the campaign plan, run nothing
//	amdmb soak -replay out/bundles/step004_determinism
//	amdmb soak -torture 3                # SIGKILL/resume torture via child amdmb
//
// Exit status: 0 all oracles held, 1 infrastructure failure, 2 usage
// error, 4 oracle violations (repro bundles listed on stdout).

// soakCLI carries the soak subcommand's flags.
type soakCLI struct {
	seed      int64
	steps     int
	duration  time.Duration
	kernels   int
	faults    string
	killEvery int
	churn     int
	workers   int
	retries   int
	maxDomain int
	trace     bool
	failFast  bool
	bundleDir string
	scratch   string
	plan      int
	replay    string
	torture   int

	out    io.Writer
	errOut io.Writer
}

// runSoak is the `amdmb soak` entry point; argv excludes the "soak"
// word itself.
func runSoak(argv []string, stdout, stderr io.Writer) int {
	c := &soakCLI{out: stdout, errOut: stderr}
	fs := flag.NewFlagSet("amdmb soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&c.seed, "seed", 0, "campaign seed; the entire campaign is a function of it")
	fs.IntVar(&c.steps, "steps", 0, "campaign length in steps (0 = 8, unless -duration is set)")
	fs.DurationVar(&c.duration, "duration", 0, "stop the campaign after this long (checked between steps)")
	fs.IntVar(&c.kernels, "kernels", 0, "sweep width per step (0 = 4)")
	fs.StringVar(&c.faults, "faults", "", "deterministic fault-injection plan (see -faults on the main command)")
	fs.IntVar(&c.killEvery, "kill-every", 0, "make every Nth step a kill/resume cycle (0 = off)")
	fs.IntVar(&c.churn, "churn", 0, "goroutines churning the artifact caches during each sweep (0 = off)")
	fs.IntVar(&c.workers, "workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&c.retries, "retries", 0, "retry attempts for transient launch failures (0 = 2)")
	fs.IntVar(&c.maxDomain, "max-domain", 0, "clamp every sweep domain to at most NxN (0 = no clamp)")
	fs.BoolVar(&c.trace, "trace", true, "arm the span tracer and trace-consistency oracle (disable for hours-long runs)")
	fs.BoolVar(&c.failFast, "fail-fast", false, "stop the campaign at the first oracle violation")
	fs.StringVar(&c.bundleDir, "bundles", "", "write repro bundles for oracle violations under this directory")
	fs.StringVar(&c.scratch, "scratch", "", "directory for kill/resume cache dirs (default: a temp dir)")
	fs.IntVar(&c.plan, "plan", 0, "print the first N campaign steps and exit without running")
	fs.StringVar(&c.replay, "replay", "", "replay a repro bundle directory and exit")
	fs.IntVar(&c.torture, "torture", 0, "run N SIGKILL/resume cycles against child amdmb sweeps and exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "amdmb soak: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var plan *fault.Plan
	if c.faults != "" {
		var err error
		plan, err = fault.Parse(c.faults)
		if err != nil {
			fmt.Fprintf(stderr, "amdmb soak: %v\n", err)
			return 2
		}
	}
	cfg := soak.Config{
		Seed:           c.seed,
		Steps:          c.steps,
		Duration:       c.duration,
		KernelsPerStep: c.kernels,
		Faults:         plan,
		KillEvery:      c.killEvery,
		ChurnWorkers:   c.churn,
		Workers:        c.workers,
		Retries:        c.retries,
		MaxDomain:      c.maxDomain,
		Trace:          c.trace,
		ScratchDir:     c.scratch,
		BundleDir:      c.bundleDir,
		Out:            stdout,
		FailFast:       c.failFast,
	}

	switch {
	case c.replay != "":
		return c.runReplay(cfg)
	case c.plan > 0:
		soak.RenderPlan(stdout, soak.Plan(cfg, c.plan))
		return 0
	case c.torture > 0:
		return c.runTorture()
	}
	return c.runCampaign(cfg)
}

// runCampaign executes the campaign and renders its report.
func (c *soakCLI) runCampaign(cfg soak.Config) int {
	rep, err := soak.Run(cfg)
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb soak: %v\n", err)
		return 1
	}
	fmt.Fprintf(c.out, "soak: seed=%d steps=%d points=%d failures=%d kills=%d launches=%d violations=%d\n",
		rep.Seed, rep.Steps, rep.Points, rep.Failures, rep.Kills, rep.Launches, len(rep.Violations))
	fmt.Fprintf(c.errOut, "soak: %v elapsed, %d kernels churned\n", rep.Elapsed.Round(time.Millisecond), rep.Churned)
	if rep.Ok() {
		return 0
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(c.out, "VIOLATION %s\n", v)
		if v.Bundle != "" {
			fmt.Fprintf(c.out, "  repro bundle: %s\n", v.Bundle)
		}
	}
	return 4
}

// runReplay re-checks one repro bundle.
func (c *soakCLI) runReplay(cfg soak.Config) int {
	err := soak.ReplayBundle(c.replay, cfg)
	switch {
	case err == nil:
		fmt.Fprintf(c.out, "soak: %s no longer reproduces\n", c.replay)
		return 0
	case strings.Contains(err.Error(), "still reproduces"):
		fmt.Fprintf(c.out, "soak: %v\n", err)
		return 4
	default:
		fmt.Fprintf(c.errOut, "amdmb soak: %v\n", err)
		return 1
	}
}

// runTorture SIGKILLs child amdmb sweeps mid-write to a shared
// persistent cache dir and verifies the survivor's figure CSV is
// bit-identical to an uninterrupted run with zero torn cache records. The child sweep is fig7 at smoke
// scale: enough points (dozens) for several kills to land mid-sweep.
func (c *soakCLI) runTorture() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb soak: -torture: %v\n", err)
		return 1
	}
	scratch := c.scratch
	if scratch == "" {
		dir, err := os.MkdirTemp("", "amdmb-torture-*")
		if err != nil {
			fmt.Fprintf(c.errOut, "amdmb soak: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	maxDomain := c.maxDomain
	if maxDomain <= 0 {
		maxDomain = 48
	}
	cache := filepath.Join(scratch, "cache")
	tortured := filepath.Join(scratch, "tortured")
	reference := filepath.Join(scratch, "reference")

	childArgs := func(cacheDir, outDir string) []string {
		return []string{
			"-iters", "1", "-max-domain", fmt.Sprint(maxDomain),
			"-retries", "2", "-cache-dir", cacheDir,
			"-csv", "-o", outDir, "fig7",
		}
	}
	res, err := soak.Torture(soak.TortureConfig{
		NewChild: func(cycle int) *exec.Cmd {
			cmd := exec.Command(self, childArgs(cache, tortured)...)
			cmd.Stderr = c.errOut
			return cmd
		},
		CacheDir: cache,
		Cycles:   c.torture,
		Out:      c.errOut,
	})
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb soak: -torture: %v\n", err)
		return 1
	}

	ref := exec.Command(self, childArgs(filepath.Join(scratch, "reference-cache"), reference)...)
	ref.Stderr = c.errOut
	if err := ref.Run(); err != nil {
		fmt.Fprintf(c.errOut, "amdmb soak: -torture reference run: %v\n", err)
		return 1
	}
	a, errA := os.ReadFile(filepath.Join(tortured, "fig7.csv"))
	b, errB := os.ReadFile(filepath.Join(reference, "fig7.csv"))
	if errA != nil || errB != nil {
		fmt.Fprintf(c.errOut, "amdmb soak: -torture: reading CSVs: %v %v\n", errA, errB)
		return 1
	}
	identical := bytes.Equal(a, b)
	fmt.Fprintf(c.out, "torture: kills=%d clean_exits=%d entries=%d torn=%d identical=%v\n",
		res.Kills, res.CleanExits, res.Entries, res.Torn, identical)
	if res.Torn != 0 || !identical {
		return 4
	}
	return 0
}
