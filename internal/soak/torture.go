package soak

import (
	"fmt"
	"io"
	"os/exec"
	"time"

	"amdgpubench/internal/pipeline"
)

// Crash torture is the out-of-process half of the kill/resume story:
// where the in-process cycles (runKillResume) prove a cleanly cancelled
// sweep resumes, torture proves a SIGKILLed *process* does — the kill
// lands at whatever instant the persistent tier's writer happens to be
// in, which is exactly what the append protocol (one write and one
// fsync per record) must survive. The harness runs a child amdmb sweep over a persistent cache
// dir, waits for it to persist more results, kills it without ceremony,
// and repeats; the final run must complete cleanly with zero torn
// records, and the caller compares its output bit-for-bit against an
// uninterrupted run.

// TortureConfig parameterises a torture session.
type TortureConfig struct {
	// NewChild builds the child command for each cycle. Every cycle's
	// command must describe the same sweep over CacheDir, or the final
	// run resumes nothing and nothing is being tested.
	NewChild func(cycle int) *exec.Cmd
	// CacheDir is the persistent cache dir the children share; progress
	// is measured by its record count growing.
	CacheDir string
	// Cycles is how many SIGKILLs to land; zero means 3.
	Cycles int
	// Poll is the progress-poll interval; zero means 10ms.
	Poll time.Duration
	// Timeout bounds each cycle's wait for progress (and the final clean
	// run); zero means 2 minutes.
	Timeout time.Duration
	// Out, when non-nil, receives one line per cycle.
	Out io.Writer
}

// TortureResult is a session's outcome.
type TortureResult struct {
	// Kills counts children SIGKILLed after persisting new entries.
	Kills int
	// CleanExits counts children that finished the sweep before the kill
	// landed (the sweep ran out of points to torture).
	CleanExits int
	// Torn counts records that fail their checksum anywhere but at the
	// end of their segment afterwards — every one is a torn write the
	// append protocol let through, and the caller should treat any
	// nonzero count as a failure. A torn tail is what a kill mid-write
	// may leave, and is not counted.
	Torn int
	// Entries is the persisted record count the final clean run started
	// from.
	Entries int
}

// Torture runs the session: Cycles kills, then one run to completion.
func Torture(cfg TortureConfig) (*TortureResult, error) {
	if cfg.NewChild == nil || cfg.CacheDir == "" {
		return nil, fmt.Errorf("soak: torture needs NewChild and CacheDir")
	}
	cycles := cfg.Cycles
	if cycles <= 0 {
		cycles = 3
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}

	res := &TortureResult{}
	for cycle := 0; cycle < cycles; cycle++ {
		base := records(cfg.CacheDir)
		cmd := cfg.NewChild(cycle)
		if err := cmd.Start(); err != nil {
			return res, fmt.Errorf("soak: torture cycle %d: %w", cycle, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		deadline := time.Now().Add(timeout)
		killed := false
	wait:
		for {
			select {
			case err := <-exited:
				// The child finished (or died) before we saw progress.
				if err != nil {
					return res, fmt.Errorf("soak: torture cycle %d: child failed before kill: %w", cycle, err)
				}
				res.CleanExits++
				break wait
			default:
			}
			if records(cfg.CacheDir) > base {
				// Progress observed: kill mid-sweep, quite possibly
				// mid-write.
				_ = cmd.Process.Kill()
				<-exited
				res.Kills++
				killed = true
				break wait
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				<-exited
				return res, fmt.Errorf("soak: torture cycle %d: no persisted progress within %v", cycle, timeout)
			}
			time.Sleep(poll)
		}
		if cfg.Out != nil {
			verb := "killed"
			if !killed {
				verb = "finished clean"
			}
			fmt.Fprintf(cfg.Out, "torture cycle %d: %s at %d persisted entries\n",
				cycle, verb, records(cfg.CacheDir))
		}
		if !killed {
			break // nothing left to torture
		}
	}

	// The survivor: run to completion from whatever the kills left.
	res.Entries = records(cfg.CacheDir)
	final := cfg.NewChild(cycles)
	done := make(chan error, 1)
	if err := final.Start(); err != nil {
		return res, fmt.Errorf("soak: torture final run: %w", err)
	}
	go func() { done <- final.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return res, fmt.Errorf("soak: torture final run failed: %w", err)
		}
	case <-time.After(timeout):
		_ = final.Process.Kill()
		<-done
		return res, fmt.Errorf("soak: torture final run exceeded %v", timeout)
	}

	res.Torn = pipeline.ScanPersistDir(cfg.CacheDir).Torn
	return res, nil
}

// records counts the simulate records persisted under dir.
func records(dir string) int { return pipeline.ScanPersistDir(dir).Records }
