package hier

import (
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

func TestProbeGeometry(t *testing.T) {
	cases := []struct {
		p           Probe
		width, slot int
	}{
		{Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 2, Rounds: 32, Batch: 1}, 8, 65},
		{Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 16, Rounds: 4, Batch: 1}, 8, 65},
		{Probe{Type: il.Float, SurfaceBytes: 2048, Surfaces: 9, Rounds: 32, Batch: 1}, 64, 289},
		{Probe{Type: il.Float4, SurfaceBytes: 512 << 10, Surfaces: 17, Rounds: 64, Batch: 1}, 4096, 1089},
	}
	for _, c := range cases {
		if got := c.p.Width(); got != c.width {
			t.Errorf("%+v: width %d, want %d", c.p, got, c.width)
		}
		if got := c.p.Slots(); got != c.slot {
			t.Errorf("%+v: slots %d, want %d", c.p, got, c.slot)
		}
		if got := c.p.Width() * c.p.Height() * c.p.ElemBytes(); got != c.p.SurfaceBytes {
			t.Errorf("%+v: layout spans %d bytes, want %d", c.p, got, c.p.SurfaceBytes)
		}
	}
}

func TestProbeValidate(t *testing.T) {
	bad := []Probe{
		{Type: il.Float, SurfaceBytes: 128, Surfaces: 2, Rounds: 4, Batch: 1},  // below quantum
		{Type: il.Float, SurfaceBytes: 384, Surfaces: 2, Rounds: 4, Batch: 1},  // not a quantum multiple
		{Type: il.Float4, SurfaceBytes: 512, Surfaces: 2, Rounds: 4, Batch: 1}, // float4 quantum is 1024
		{Type: il.Float, SurfaceBytes: 256, Surfaces: 0, Rounds: 4, Batch: 1},
		{Type: il.Float, SurfaceBytes: 256, Surfaces: 2, Rounds: 0, Batch: 1},
		{Type: il.Float, SurfaceBytes: 256, Surfaces: 2, Rounds: 4, Batch: 9},
	}
	for _, p := range bad {
		if _, err := p.Kernel(); err == nil {
			t.Errorf("%+v: kernel built from invalid probe", p)
		}
	}
}

// TestChaseKernelPinsOneWavefront is the load-bearing property of every
// probe: the ballast must force enough GPRs that occupancy is exactly
// one resident wavefront on every supported spec — otherwise latency
// hiding corrupts the per-fetch arithmetic.
func TestChaseKernelPinsOneWavefront(t *testing.T) {
	probes := []Probe{
		{Type: il.Float, SurfaceBytes: 256, Surfaces: 2, Rounds: 32, Batch: 1},
		{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 64, Rounds: 4, Batch: 1},
		{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 32, Rounds: 2, Batch: 8},
	}
	for _, spec := range device.All() {
		for _, p := range probes {
			k, err := p.Kernel()
			if err != nil {
				t.Fatalf("%s %+v: %v", spec.Arch.CardName(), p, err)
			}
			if len(k.Code) != cap(k.Code) {
				t.Errorf("%+v: %d instructions in a %d-instruction allocation; Kernel must size Code exactly", p, len(k.Code), cap(k.Code))
			}
			prog, err := ilc.Compile(k, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Arch.CardName(), k.Name, err)
			}
			if prog.GPRCount < ballastOps {
				t.Errorf("%s %s: %d GPRs, ballast of %d not pinned", spec.Arch.CardName(), k.Name, prog.GPRCount, ballastOps)
			}
			if waves := spec.WavefrontsForGPRs(prog.GPRCount); waves != 1 {
				t.Errorf("%s %s: %d resident wavefronts, want 1", spec.Arch.CardName(), k.Name, waves)
			}
		}
	}
}

// TestChaseKernelScheduleIsPacked: the chase kernel's fetch schedule
// revisits surfaces, so the simulator must derive a non-identity
// FetchRes schedule and replay the packed arena.
func TestChaseKernelSchedulePacked(t *testing.T) {
	spec := device.Lookup(device.RV770)
	p := Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 3, Rounds: 2, Batch: 1}
	k, err := p.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilc.Compile(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Spec: spec, Prog: prog, Order: raster.PixelOrder(), W: p.Width(), H: p.Height()}
	tc, ok := sim.TraceConfigFor(cfg)
	if !ok {
		t.Fatal("chase kernel has no trace config")
	}
	want := []int{0, 0, 1, 2, 0, 1, 2}
	if len(tc.FetchRes) != len(want) {
		t.Fatalf("schedule %v, want %v", tc.FetchRes, want)
	}
	for i, r := range want {
		if tc.FetchRes[i] != r {
			t.Fatalf("schedule %v, want %v", tc.FetchRes, want)
		}
	}
	if tc.NumInputs != p.Slots() {
		t.Errorf("trace slots %d, want %d", tc.NumInputs, p.Slots())
	}
}

func TestProbeKernelName(t *testing.T) {
	p := Probe{Type: il.Float4, SurfaceBytes: 1024, Surfaces: 5, Rounds: 7, Batch: 8}
	k, err := p.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.Name, "f4") || !strings.Contains(k.Name, "k5") {
		t.Errorf("kernel name %q does not encode the probe", k.Name)
	}
}
