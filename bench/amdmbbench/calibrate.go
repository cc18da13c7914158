package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// Host speed on a shared machine drifts by tens of percent over minutes,
// with contention for the CPUs and the memory system. So the benchmark
// times a fixed calibration kernel between ops, with every client
// paused, and scales each timing to a machine on which that kernel takes
// calRefMS: time x calRefMS / (median kernel time). Across runs at
// different times the scaled op latency varies about half as much as
// the raw one. The kernel is the benchmark's own code, so no change to
// the program can move it, and it runs in a helper process so its
// buffers add nothing to the measured process's heap or peak RSS.
const (
	calWords = 8 << 20 // 64 MiB of uint64, well past the per-core caches
	calSmall = 1 << 19 // 4 MiB of uint64, within a server part's L2/L3
	calSteps = 1_000_000
	calSpins = 2_500_000
	calRefMS = 30.0
	// calEvery trades samples for pauses: each calibration holds every
	// client for the kernel's time and, with two clients, holds one until
	// the other's op ends.
	calEvery = time.Second
	calStart = 3 // samples taken before anything is set up
)

// calibrationKernel is the timed kernel. Its three parts, of similar
// length, stand for the three ways the workloads use the machine:
// pseudo-random read-modify-writes over a buffer far past the caches
// (cache replay, persist loads), a register-only arithmetic loop
// (compile), and read-modify-writes over a cache-sized buffer on two
// threads at once (the two sweep workers). Over ten runs per workload on
// a 2-vCPU VM, scaling by all three parts gave a smaller run-to-run
// spread than the first part alone on three workloads of four.
func calibrationKernel(big []uint64, small [2][]uint64) {
	big[0] += rmw(big, calSteps)
	x := uint64(88172645463325252)
	for i := 0; i < calSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x = x*2862933555777941757 + 3037000493
	}
	big[1] += x
	var wg sync.WaitGroup
	for _, buf := range small {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			buf[0] += rmw(buf, calSteps)
		}(buf)
	}
	wg.Wait()
}

// rmw makes n pseudo-random read-modify-writes over buf, whose length
// is a power of two.
func rmw(buf []uint64, n int) uint64 {
	x := uint64(1)
	mask := uint64(len(buf) - 1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[(x>>20)&mask] += x
	}
	return x
}

// serveCalibration is the helper process: for every byte read from in
// it runs the kernel once and writes the kernel's time in nanoseconds
// as one line. It returns when in closes.
func serveCalibration(in io.Reader, out io.Writer) error {
	big := make([]uint64, calWords)
	small := [2][]uint64{make([]uint64, calSmall), make([]uint64, calSmall)}
	for _, buf := range [][]uint64{big, small[0], small[1]} {
		for i := range buf { // fault every page in before the first timing
			buf[i] = uint64(i)
		}
	}
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		t0 := time.Now()
		calibrationKernel(big, small)
		if _, err := fmt.Fprintln(out, time.Since(t0).Nanoseconds()); err != nil {
			return err
		}
	}
}

// calibrator owns the helper process and the gate that pauses clients
// while the kernel runs. A nil *calibrator gates nothing.
type calibrator struct {
	// kernel runs the calibration kernel once and returns its time in
	// ms: in the helper process, or a fake in tests.
	kernel func() (float64, error)
	period time.Duration // between samples in a timed window
	cmd    *exec.Cmd
	in     io.WriteCloser

	// Clients hold gate for reading around every op; a calibration holds
	// it for writing, so it runs between ops with the process quiet.
	gate sync.RWMutex

	mu      sync.Mutex
	samples []float64 // kernel times, ms
}

// startCalibrator starts the helper (this binary, --calibrator) and
// takes the initial samples.
func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{period: calEvery, cmd: exec.Command(self, "--calibrator")}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	pipe, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	out := bufio.NewScanner(pipe)
	c.kernel = func() (float64, error) {
		if _, err := c.in.Write([]byte{'.'}); err != nil {
			return 0, fmt.Errorf("calibration helper: %w", err)
		}
		if !out.Scan() {
			return 0, fmt.Errorf("calibration helper exited: %v", out.Err())
		}
		ns, err := strconv.ParseInt(out.Text(), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("calibration helper: %w", err)
		}
		return float64(ns) / 1e6, nil
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibration helper: %w", err)
	}
	for i := 0; i < calStart; i++ {
		if err := c.sample(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// sample runs the kernel once and records its time.
func (c *calibrator) sample() error {
	ms, err := c.kernel()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.samples = append(c.samples, ms)
	c.mu.Unlock()
	return nil
}

// every pauses the clients and samples every period until the returned
// stop func is called; stop waits for the sampling goroutine to exit.
func (c *calibrator) every() (stop func() error) {
	if c == nil {
		return func() error { return nil }
	}
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		t := time.NewTicker(c.period)
		defer t.Stop()
		for {
			select {
			case <-done:
				errc <- nil
				return
			case <-t.C:
			}
			c.gate.Lock()
			err := c.sample()
			c.gate.Unlock()
			if err != nil {
				<-done
				errc <- err
				return
			}
		}
	}()
	return func() error {
		close(done)
		return <-errc
	}
}

// enter and leave bracket one op. enter blocks while a calibration runs
// and, because a waiting writer holds off new readers, while one waits
// for the other clients' ops in flight; it returns how long it blocked.
func (c *calibrator) enter() time.Duration {
	if c == nil {
		return 0
	}
	t0 := time.Now()
	c.gate.RLock()
	return time.Since(t0)
}

func (c *calibrator) leave() {
	if c != nil {
		c.gate.RUnlock()
	}
}

// medianMS is the median kernel time so far.
func (c *calibrator) medianMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return percentile(c.samples, 0.5)
}

// count is how many samples were taken.
func (c *calibrator) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// close ends the helper and waits for it to exit.
func (c *calibrator) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// scale applies the calibration to a metric by its unit: times scale by
// calRefMS/kernel time, rates by the inverse; other units are left as
// measured.
func scale(v float64, unit string, kernelMS float64) float64 {
	f := calRefMS / kernelMS
	switch unit {
	case "ms", "s":
		return v * f
	case "1/s":
		return v / f
	}
	return v
}
