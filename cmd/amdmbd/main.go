// Command amdmbd is the long-lived campaign daemon: one shared suite,
// many clients. It listens for campaign submissions over HTTP
// (internal/daemon documents the API), plans each through the
// campaign scheduler, and runs them all against ONE core.Suite —
// so concurrent clients with overlapping figures compile and simulate
// shared work once, and a persistent -cache-dir lets a restarted daemon
// replay finished results from disk instead of recomputing them.
//
//	amdmbd -cache-dir /var/cache/amdmb &
//	amdmb campaign -figs fig7,fig8 -csv -remote http://127.0.0.1:7821
//
// The iteration count is fixed per daemon (-iters; 0 means the paper's
// 5000) because it is part of every cache identity — clients asking for
// a different count are rejected with 400 rather than silently served
// mismatched numbers. The persistent -cache-dir is the daemon's
// durability story, as it is the suite's: it is keyed per simulate
// config, so any mix of concurrent campaigns shares it safely. At boot
// the daemon reads every segment in it into an in-memory index (200 to
// 320 bytes per result); it appends what it computes to a segment of its
// own, fsynced per result, so it may share the directory with amdmb
// shard processes, and results they write while it runs are served
// after its next restart. The daemon runs no tracer (unbounded on a
// long-lived process).
//
// Exit status: 0 after a clean signal-driven shutdown, 1 on a fatal
// serve error, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/daemon"
	"amdgpubench/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(argv []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("amdmbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7821", "listen address")
		cacheDir  = fs.String("cache-dir", "", "persistent simulate-result cache directory; restarts replay from it instead of recomputing")
		iters     = fs.Int("iters", 0, "timing iterations for every campaign (0 = the paper's 5000); clients must match")
		workers   = fs.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		retries   = fs.Int("retries", 0, "per-point retries for transient failures")
		maxDomain = fs.Int("max-domain", 0, "clamp sweep domains to at most N x N, hier-* probes excepted (0 = unclamped)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "amdmbd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *iters < 0 || *maxDomain < 0 {
		fmt.Fprintf(stderr, "amdmbd: -iters and -max-domain must not be negative (got %d, %d)\n", *iters, *maxDomain)
		return 2
	}

	logger := log.New(stderr, "amdmbd: ", log.LstdFlags)

	s := core.NewSuite()
	s.Iterations = *iters
	s.Workers = *workers
	s.Retries = *retries
	s.PersistDir = *cacheDir
	jobs := campaign.NewJobs(s)
	jobs.MaxDomain = *maxDomain

	srv := &http.Server{Handler: daemon.NewServer(jobs, s.Metrics(), logger)}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	cache := *cacheDir
	if cache == "" {
		cache = "none (results die with the process)"
	}
	logger.Printf("listening on http://%s (iterations=%d, cache=%s)", ln.Addr(), sim.Iterations(*iters), cache)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Print(err)
		return 1
	case got := <-sig:
		// In-flight campaigns are abandoned; with a cache-dir their
		// finished points replay instantly on the next daemon.
		logger.Printf("%v: shutting down", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		return 0
	}
}
