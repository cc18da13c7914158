package core

import (
	"errors"
	"strings"
	"testing"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
)

func TestTuneBlockSizeFindsBetterThanNaive(t *testing.T) {
	s := suite()
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 16, Outputs: 1,
		ALUFetchRatio: 0.25, OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	card := Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float}
	res, err := s.TuneBlockSize(card, k, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(blockShapes) {
		t.Fatalf("tried %d shapes, want %d", len(res.Trials), len(blockShapes))
	}
	if res.Best.BlockW == 64 && res.Best.BlockH == 1 {
		t.Fatal("tuner picked the naive 64x1 block for a fetch-bound kernel")
	}
	if res.Speedup < 1.5 {
		t.Fatalf("tuner speedup %.2fx, want >= 1.5x", res.Speedup)
	}
	ord, err := res.Order()
	if err != nil {
		t.Fatal(err)
	}
	if ord.BlockW != res.Best.BlockW || ord.BlockH != res.Best.BlockH {
		t.Fatal("Order() does not match the best trial")
	}
	out := FormatBlockTune(res)
	if !strings.Contains(out, "best:") || !strings.Contains(out, "*") {
		t.Errorf("tuning table malformed:\n%s", out)
	}
}

func TestTuneBlockSizeRejectsPixelKernels(t *testing.T) {
	s := suite()
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 8, Outputs: 1, ALUFetchRatio: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	card := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	if _, err := s.TuneBlockSize(card, k, 256, 256); err == nil {
		t.Fatal("pixel kernel accepted for block tuning")
	}
}

func TestTuneBlockSizeALUBoundIndifferent(t *testing.T) {
	// An ALU-bound kernel should see little spread across blocks; the
	// tuner must still work and report a modest speedup.
	s := suite()
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 16, OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	card := Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float}
	res, err := s.TuneBlockSize(card, k, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup > 1.3 {
		t.Fatalf("ALU-bound kernel shows %.2fx block sensitivity, want little", res.Speedup)
	}
}

// TestTuneBlockSizeFailedShapeIsAnError: a shape whose launch panics
// resolves to a failure record in the sweep, and the search reports it
// by name instead of timing it as 0 seconds.
func TestTuneBlockSizeFailedShapeIsAnError(t *testing.T) {
	s := quickSuite()
	s.BeforeLaunch = func(p KernelPoint, _ int) {
		if p.Card.BlockW == 8 {
			panic("injected test panic")
		}
	}
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1, OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	card := Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float}
	_, err = s.TuneBlockSize(card, k, 64, 64)
	if err == nil || !strings.Contains(err.Error(), "block 8x8") {
		t.Fatalf("TuneBlockSize error = %v, want one naming block 8x8", err)
	}
}

// TestTuneBlockSizeKeepsTimeoutKind: a shape the watchdog aborts fails
// the search with an error that errors.Is sees as a timeout.
func TestTuneBlockSizeKeepsTimeoutKind(t *testing.T) {
	s := quickSuite()
	s.DeadlineCycles = 1000
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Compute, Type: il.Float, Inputs: 4, Outputs: 1,
		ALUFetchRatio: 1, OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	card := Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float}
	_, err = s.TuneBlockSize(card, k, 64, 64)
	if !errors.Is(err, cal.ErrKernelTimeout) || !strings.Contains(err.Error(), "core: block 64x1 failed: ") {
		t.Fatalf("TuneBlockSize under a 1000-cycle budget: got %v, want a block 64x1 cal.ErrKernelTimeout", err)
	}
}
