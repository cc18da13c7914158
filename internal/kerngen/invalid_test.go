package kerngen_test

import (
	"context"
	"crypto/sha256"
	"strings"
	"testing"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/pipeline"
)

// TestInvalidKernelRejectedEverywhere checks that validating each kernel
// once leaves no door open: a kernel that fails il.Kernel.Validate is
// still rejected, with the same message, where a generator finishes it,
// where a context loads it, and where the compiler or the pipeline's
// compile stage lowers it, sealed or not.
func TestInvalidKernelRejectedEverywhere(t *testing.T) {
	// Input 0 is sampled, but output 0 is never written.
	bad := &il.Kernel{Name: "bad", Mode: il.Pixel, Type: il.Float, NumInputs: 1, NumOutputs: 1,
		Code: []il.Instr{{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0}}}
	const why = `il: kernel "bad": output 0 never written (kernel would be optimized away)`
	spec := device.Lookup(device.RV770)
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		t.Fatal(err)
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, tc := range []struct {
		where, want string
		err         func() error
	}{
		{"generate", "kerngen: generated invalid kernel: " + why, func() error {
			_, err := kerngen.Finish(bad)
			return err
		}},
		{"load", "cal: ilc: " + why, func() error {
			_, err := dev.CreateContext().LoadModule(il.Seal(bad))
			return err
		}},
		{"compile", "ilc: " + why, func() error {
			_, err := ilc.CompileWith(bad, spec, ilc.Options{})
			return err
		}},
		{"compile sealed", "ilc: " + why, func() error {
			_, err := ilc.CompileSealed(il.Seal(bad), ilc.TargetOf(spec), ilc.Options{})
			return err
		}},
		{"pipeline compile", "ilc: " + why, func() error {
			_, err := pipeline.New(pipeline.Options{}).Compile(il.Seal(bad), spec, ilc.Options{})
			return err
		}},
	} {
		if got := errText(tc.err()); got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.where, got, tc.want)
		}
	}
}

// TestFailedBuildFailsTheSweep: a deferred seal whose build fails its
// own check (a generator bug) loads, since loading needs only the mode,
// and then fails everything that needs the code with the build's error:
// Program, a launch, and the sweep, which stops before timing anything.
// Nothing panics.
func TestFailedBuildFailsTheSweep(t *testing.T) {
	bad := &il.Kernel{Name: "bad", Mode: il.Pixel, Type: il.Float, NumInputs: 1, NumOutputs: 1,
		Code: []il.Instr{{Op: il.OpSample, Dst: 0, SrcA: il.NoReg, SrcB: il.NoReg, Res: 0}}}
	const why = `kerngen: generated invalid kernel: il: kernel "bad": output 0 never written (kernel would be optimized away)`
	seal := func() *il.Sealed {
		return il.SealDeferred(sha256.Sum256([]byte("bad source")), "bad", il.Pixel, func() (*il.Kernel, error) {
			return kerngen.Finish(bad)
		})
	}
	dev, err := cal.OpenDevice(device.RV770)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dev.CreateContext()
	m, err := ctx.LoadModule(seal())
	if err != nil {
		t.Fatalf("load: %v, want the mode check alone", err)
	}
	if _, err := m.Program(); err == nil || err.Error() != "cal: "+why {
		t.Errorf("Program: error %v, want %q", err, "cal: "+why)
	}

	s := core.NewSuite()
	s.Iterations = 1
	card := core.Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	runs, err := s.RunKernelPoints(context.Background(), []core.KernelPoint{{Card: card, X: 1, K: seal(), W: 16, H: 16}}, core.SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("sweep: runs %v, error %v; want the build's error", runs, err)
	}
	if got := s.Metrics().Snapshot().Get("core.sweep.points.completed"); got != 0 {
		t.Errorf("%d points completed, want 0", got)
	}
}
