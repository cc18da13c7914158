package soak

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"amdgpubench/internal/sim"
)

// Crash torture is the out-of-process half of the kill/resume story:
// where the in-process cycles (runKillResume) prove a cleanly cancelled
// sweep resumes, torture proves a SIGKILLed *process* does — the kill
// lands at whatever instant the persistent tier's writer happens to be
// in, which is exactly what the crash-atomic write protocol must
// survive. The harness runs a child amdmb sweep over a persistent cache
// dir, waits for it to persist more results, kills it without ceremony,
// and repeats; the final run must complete cleanly with zero torn
// entries, and the caller compares its output bit-for-bit against an
// uninterrupted run.

// TortureConfig parameterises a torture session.
type TortureConfig struct {
	// NewChild builds the child command for each cycle. Every cycle's
	// command must describe the same sweep over CacheDir, or the final
	// run resumes nothing and nothing is being tested.
	NewChild func(cycle int) *exec.Cmd
	// CacheDir is the persistent cache dir the children share; progress
	// is measured by its entry count growing.
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
	// Torn counts entries that fail to parse afterwards — every one is a
	// torn write the atomic write protocol let through, and the caller
	// should treat any nonzero count as a failure.
	Torn int
	// Entries is the persisted entry count the final clean run started
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
		base := len(cacheEntries(cfg.CacheDir))
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
			if len(cacheEntries(cfg.CacheDir)) > base {
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
				cycle, verb, len(cacheEntries(cfg.CacheDir)))
		}
		if !killed {
			break // nothing left to torture
		}
	}

	// The survivor: run to completion from whatever the kills left.
	res.Entries = len(cacheEntries(cfg.CacheDir))
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

	res.Torn = countTorn(cfg.CacheDir)
	return res, nil
}

// cacheEntries lists the simulate entries persisted under dir. Temp
// files from in-flight or killed writes are named <entry>.json.tmp-*,
// so the pattern never matches them.
func cacheEntries(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "simulate", "*", "*.json"))
	return matches
}

// countTorn counts persisted entries that do not parse as a simulate
// result — the torn writes the crash-atomic protocol must rule out.
func countTorn(dir string) int {
	torn := 0
	for _, path := range cacheEntries(dir) {
		data, err := os.ReadFile(path)
		var res sim.Result
		if err != nil || json.Unmarshal(data, &res) != nil {
			torn++
		}
	}
	return torn
}
