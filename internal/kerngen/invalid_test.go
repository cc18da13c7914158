package kerngen_test

import (
	"testing"

	"amdgpubench/internal/cal"
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
			_, err := ilc.CompileSealed(il.Seal(bad), spec, ilc.Options{})
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
