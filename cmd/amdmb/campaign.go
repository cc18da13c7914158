package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"amdgpubench/internal/campaign"
)

// The campaign subcommand: plan several figures as one list of launch
// units (internal/campaign) and execute them as a single resilient
// sweep — a launch two figures share is simulated once and served to
// the second from the simulate store.
//
//	amdmb campaign -figs fig7,fig8,fig11,fig16 -csv
//	amdmb campaign -figs fig16,clausectl -plan     # the schedule, run nothing
//	amdmb campaign -figs fig7 -archs 4870 -csv     # only the RV770's series
//
// The persistent -cache-dir is the campaign's only durable store: a
// campaign killed midway resumes by rerunning it over the same
// directory, which serves every launch it finished from disk. Sharding
// is processes sharing one -cache-dir: with -shard i/n a process runs
// the units whose scheduled index is congruent to i mod n, writes their
// results into the directory, and emits no figures. The follow-up
// unsharded run over the same directory serves every unit from disk,
// emitting figures byte-identical to a run that never sharded:
//
//	amdmb campaign -figs fig7,fig8 -cache-dir cache -shard 0/2 &
//	amdmb campaign -figs fig7,fig8 -cache-dir cache -shard 1/2 &
//	wait; amdmb campaign -figs fig7,fig8 -cache-dir cache -csv
//
// With -remote the campaign runs on an amdmbd daemon instead of
// in-process: the request (figures, -max-domain, -iters, optionally
// -archs) ships over HTTP, the daemon parses it exactly as a local run
// does and executes it on its shared suite — deduplicating against
// every other client's concurrent campaigns and its persistent cache —
// and the client streams back CSVs that are byte-identical to a local
// -csv run:
//
//	amdmb campaign -figs fig7,fig8 -csv -remote http://127.0.0.1:7821
//
// Figures print to stdout in -figs order with exactly the rendering the
// per-figure experiments use; the campaign summary line goes to stderr,
// so piped stdout of a -csv campaign is byte-for-byte the concatenation
// of the individual figures' CSV output. Exit status matches the main
// command: 0 on success, 1 on a fatal error, 2 on usage errors, 3 when
// units completed but recorded per-point failures.

// runCampaignCmd is the `amdmb campaign` entry point; argv excludes the
// "campaign" word itself.
func runCampaignCmd(argv []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, errOut: stderr}
	fs := flag.NewFlagSet("amdmb campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs      string
		planOnly  bool
		workers   int
		shardSpec string
		remote    string
		archsSpec string
	)
	fs.StringVar(&figs, "figs", "", "comma-separated figures to schedule together (required)")
	fs.BoolVar(&planOnly, "plan", false, "print the launch schedule, run nothing")
	fs.IntVar(&workers, "workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
	fs.StringVar(&shardSpec, "shard", "", "run shard i of n (format i/n, requires -cache-dir); an unsharded run over the same -cache-dir combines the shards")
	fs.StringVar(&remote, "remote", "", "run the campaign on an amdmbd daemon at this address instead of in-process (requires -csv)")
	fs.StringVar(&archsSpec, "archs", "", "comma-separated architectures to restrict every figure to, e.g. 4870,RV870")
	c.commonFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	shard, shards := 0, 1
	if shardSpec != "" {
		if n, err := fmt.Sscanf(shardSpec, "%d/%d", &shard, &shards); n != 2 || err != nil || shards < 1 || shard < 0 || shard >= shards {
			fmt.Fprintf(stderr, "amdmb campaign: bad -shard %q, want i/n with 0 <= i < n\n", shardSpec)
			return 2
		}
	}
	if shards > 1 && c.cacheDir == "" {
		fmt.Fprintln(stderr, "amdmb campaign: -shard requires -cache-dir (shards combine through the persistent cache)")
		return 2
	}
	if shards > 1 && c.noCache {
		fmt.Fprintln(stderr, "amdmb campaign: -shard cannot combine with -no-cache (it turns off the persistent cache the shards combine through)")
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "amdmb campaign: unexpected arguments %q (figures go in -figs)\n", fs.Args())
		return 2
	}
	if figs == "" {
		fmt.Fprintln(stderr, "usage: amdmb campaign -figs a,b,... [flags]")
		fmt.Fprintf(stderr, "figures: %s\n", strings.Join(campaign.FigureNames(), " "))
		return 2
	}
	names := strings.Split(figs, ",")
	var archs []string
	if archsSpec != "" {
		archs = strings.Split(archsSpec, ",")
	}

	if remote != "" {
		// Flags that configure the LOCAL suite or its artifacts have no
		// remote meaning; failing beats silently ignoring them. -iters
		// and -max-domain travel in the request instead.
		localOnly := map[string]bool{
			"plan": true, "shard": true, "workers": true,
			"faults": true, "no-cache": true, "cache-dir": true, "trace": true,
			"metrics": true, "metrics-json": true,
			"progress": true, "o": true, "timeout": true, "retries": true,
		}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if localOnly[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			fmt.Fprintf(stderr, "amdmb campaign: %s configure the local suite and cannot combine with -remote (the daemon owns those settings)\n",
				strings.Join(bad, " "))
			return 2
		}
		if !c.csv {
			fmt.Fprintln(stderr, "amdmb campaign: -remote requires -csv (the daemon serves figures as CSV)")
			return 2
		}
		return runRemoteCampaign(remote, names, archs, c)
	}

	s, err := c.newSuite()
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 2
	}
	s.Workers = workers

	plan, err := c.plan(s, names, archs)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		if errors.As(err, new(*campaign.RequestError)) {
			return 2
		}
		return 1
	}
	if planOnly {
		if err := campaign.RenderPlan(stdout, plan); err != nil {
			fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
			return 1
		}
		return 0
	}

	opts := c.runOptions()
	opts.Shard, opts.Shards = shard, shards
	res, err := plan.RunCtx(context.Background(), s, opts)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 1
	}
	if shards > 1 {
		fmt.Fprintf(stderr, "campaign shard %d/%d: units=%d executed=%d failed=%d\n",
			shard, shards, len(plan.Units), res.Executed, res.Failed())
		return c.epilogue(s, res.Failures)
	}
	for _, fig := range res.Figures {
		if err := c.emitFigure(fig); err != nil {
			fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "campaign: figures=%d units=%d executed=%d failed=%d\n",
		len(plan.Specs), len(plan.Units), res.Executed, res.Failed())
	return c.epilogue(s, res.Failures)
}
