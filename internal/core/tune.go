package core

// TuneBlockSize is the "help the selection of optimization parameters"
// entry point the paper's introduction promises: given a compute-mode
// kernel, it times every 64-thread block shape and returns the best one,
// with the full trial table for the caller to inspect.

import (
	"context"
	"fmt"

	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// BlockTrial is one block shape's timing.
type BlockTrial struct {
	BlockW, BlockH int
	Seconds        float64
	HitRate        float64
	Bottleneck     string
}

// BlockTuneResult is the outcome of a block-size search.
type BlockTuneResult struct {
	Trials []BlockTrial
	Best   BlockTrial
	// Speedup is naive-64x1 time over best time.
	Speedup float64
}

// Order returns the winning block shape as a raster order.
func (r *BlockTuneResult) Order() (raster.Order, error) {
	return raster.ComputeOrder(r.Best.BlockW, r.Best.BlockH)
}

// TuneBlockSize times the kernel under every 64-thread block shape on the
// card's device and picks the fastest. The kernel must be a compute-mode
// kernel (pixel mode has no block choice: the rasterizer decides). The
// shapes run as one sweep, with the retries, panic fence and
// parallelism of every figure point, on the w x h domain given; a shape
// that resolves to a failure record fails the search.
func (s *Suite) TuneBlockSize(card Card, k *il.Kernel, w, h int) (*BlockTuneResult, error) {
	if k.Mode != il.Compute {
		return nil, fmt.Errorf("core: block tuning applies to compute-mode kernels; pixel mode has no block parameter")
	}
	sk := il.Seal(k)
	pts := make([]KernelPoint, len(blockShapes))
	for i, b := range blockShapes {
		c := card
		c.Mode = il.Compute
		c.BlockW, c.BlockH = b.w, b.h
		pts[i] = KernelPoint{Card: c, K: sk, W: w, H: h}
	}
	runs, err := s.RunKernelPoints(context.Background(), pts, SweepOptions{})
	if err != nil {
		return nil, err
	}
	res := &BlockTuneResult{}
	var naive float64
	for i, run := range runs {
		b := blockShapes[i]
		if run.Failed() {
			return nil, fmt.Errorf("core: block %dx%d failed: %w", b.w, b.h, run.Failure())
		}
		trial := BlockTrial{
			BlockW: b.w, BlockH: b.h,
			Seconds: run.Seconds, HitRate: run.HitRate, Bottleneck: run.Bottleneck,
		}
		res.Trials = append(res.Trials, trial)
		if b.w == 64 && b.h == 1 {
			naive = run.Seconds
		}
		if res.Best.Seconds == 0 || trial.Seconds < res.Best.Seconds {
			res.Best = trial
		}
	}
	if res.Best.Seconds > 0 {
		res.Speedup = naive / res.Best.Seconds
	}
	return res, nil
}

// FormatBlockTune renders a tuning result as a table string.
func FormatBlockTune(r *BlockTuneResult) string {
	s := "block   seconds   L1 hit  bottleneck\n"
	for _, t := range r.Trials {
		marker := " "
		if t == r.Best {
			marker = "*"
		}
		s += fmt.Sprintf("%s %2dx%-2d  %8.3f  %.3f   %s\n", marker, t.BlockW, t.BlockH, t.Seconds, t.HitRate, t.Bottleneck)
	}
	s += fmt.Sprintf("best: %dx%d (%.2fx over 64x1)\n", r.Best.BlockW, r.Best.BlockH, r.Speedup)
	return s
}
