package cal

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/raster"
)

// faultCtx opens an RV770 context with a plan armed.
func faultCtx(t *testing.T, plan *fault.Plan) (*Context, *Module) {
	t.Helper()
	ctx := openCtx(t, device.RV770)
	ctx.SetFaultPlan(plan)
	m, err := ctx.LoadModule(sumKernel(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	return ctx, m
}

func fCfg() LaunchConfig {
	return LaunchConfig{Order: raster.PixelOrder(), W: 64, H: 64, Iterations: 1}
}

func TestLaunchTransientFault(t *testing.T) {
	ctx, m := faultCtx(t, &fault.Plan{Specs: []fault.Spec{{Kind: fault.Transient, Prob: 1}}})
	_, err := ctx.Launch(m, fCfg())
	if !errors.Is(err, ErrLaunchTransient) {
		t.Fatalf("want ErrLaunchTransient, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("transient should be retryable")
	}
	var le *LaunchError
	if !errors.As(err, &le) || le.Arch != device.RV770 {
		t.Fatalf("launch error detail: %v", err)
	}
}

func TestLaunchHangBecomesKernelTimeout(t *testing.T) {
	ctx, m := faultCtx(t, &fault.Plan{Specs: []fault.Spec{{Kind: fault.Hang, Prob: 1, Clause: 1}}})
	cfg := fCfg()
	cfg.DeadlineCycles = 1 << 20
	_, err := ctx.Launch(m, cfg)
	if !errors.Is(err, ErrKernelTimeout) {
		t.Fatalf("want ErrKernelTimeout, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("timeout must not be classified transient")
	}
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("not a LaunchError: %v", err)
	}
	if le.Diag == nil || le.Diag.Clause != 1 {
		t.Fatalf("missing or wrong watchdog diagnostic: %+v", le.Diag)
	}
	if !strings.Contains(err.Error(), "injected: hang") {
		t.Errorf("error should name the injected fault: %q", err.Error())
	}
}

func TestLaunchDeviceLostIsFatal(t *testing.T) {
	ctx, m := faultCtx(t, &fault.Plan{Specs: []fault.Spec{{Kind: fault.DeviceLost, Prob: 1}}})
	_, err := ctx.Launch(m, fCfg())
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("want ErrDeviceLost, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("device loss must not be retried")
	}
}

func TestLaunchThrottleCompletesWithRecord(t *testing.T) {
	ctx, m := faultCtx(t, nil)
	base, err := ctx.Launch(m, fCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx2, m2 := faultCtx(t, &fault.Plan{Specs: []fault.Spec{{Kind: fault.Throttle, Prob: 1, Factor: 0.5}}})
	ev, err := ctx2.Launch(m2, fCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Injected.Throttle != 0.5 {
		t.Fatalf("event did not record throttle: %+v", ev.Injected)
	}
	if ratio := ev.ElapsedSeconds() / base.ElapsedSeconds(); ratio < 1.99 || ratio > 2.01 {
		t.Errorf("throttled launch %.3fx slower, want 2x", ratio)
	}
}

func TestLaunchAttemptClearsMatchedTransient(t *testing.T) {
	// Force a transient on attempt 0 only by probing attempts: with prob 1
	// it always fires, so scope it with prob<1 and find an attempt where
	// it clears — proving Attempt feeds the draw key.
	plan := &fault.Plan{Seed: 9, Specs: []fault.Spec{{Kind: fault.Transient, Prob: 0.5}}}
	ctx, m := faultCtx(t, plan)
	saw, cleared := false, false
	for a := 0; a < 20; a++ {
		cfg := fCfg()
		cfg.Attempt = a
		_, err := ctx.Launch(m, cfg)
		if err != nil {
			saw = true
		} else if saw {
			cleared = true
			break
		}
	}
	if !saw || !cleared {
		t.Fatalf("transient did not both strike and clear across attempts (saw=%v cleared=%v)", saw, cleared)
	}
}

func TestLaunchNoPlanUnchanged(t *testing.T) {
	ctx, m := faultCtx(t, nil)
	ev, err := ctx.Launch(m, fCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Injected.Any() {
		t.Fatalf("no plan but injection recorded: %v", ev.Injected)
	}
	if n := ctx.Pipeline().Metrics().Snapshot().Get("cal.launches"); n != 1 {
		t.Fatalf("cal.launches = %d, want 1", n)
	}
}

// TestLaunchAllocsWithoutPlan pins the launch path's allocations when no
// fault plan is armed and the simulate store already holds the result:
// the Event is the only allocation. Building the fault key (a formatted
// string and its hash) for a plan that is not there would cost three
// more.
func TestLaunchAllocsWithoutPlan(t *testing.T) {
	ctx, m := faultCtx(t, nil)
	if _, err := ctx.Launch(m, fCfg()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ctx.Launch(m, fCfg()); err != nil {
			t.Fatal(err)
		}
	})
	if hits := ctx.Pipeline().Metrics().Snapshot().Get("pipeline.simulate.hits"); hits == 0 {
		t.Fatal("repeated launches missed the simulate store")
	}
	if allocs > 1 {
		t.Errorf("store-hit launch without a plan allocates %.1f objects/op, want <= 1", allocs)
	}
}

func TestFunctionalCorruptAndDrop(t *testing.T) {
	run := func(plan *fault.Plan) float32 {
		ctx, m := faultCtx(t, plan)
		in, err := ctx.AllocResource2D(8, 8, il.Float, il.TextureSpace)
		if err != nil {
			t.Fatal(err)
		}
		in.Fill(func(x, y, l int) float32 { return 1 })
		out, err := ctx.AllocResource2D(8, 8, il.Float, il.TextureSpace)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-mark the output so dropped writes are detectable.
		out.Fill(func(x, y, l int) float32 { return -99 })
		cfg := LaunchConfig{
			Order: raster.PixelOrder(), W: 8, H: 8, Iterations: 1,
			Inputs: []*Resource{in, in, in}, Outputs: []*Resource{out},
			Functional: true,
		}
		if _, err := ctx.Launch(m, cfg); err != nil {
			t.Fatal(err)
		}
		v, err := out.At(0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	clean := run(nil)
	if clean == -99 {
		t.Fatal("clean run wrote nothing")
	}
	if got := run(&fault.Plan{Specs: []fault.Spec{{Kind: fault.Corrupt, Prob: 1}}}); got == clean {
		t.Error("corrupt fetch produced clean output")
	}
	if got := run(&fault.Plan{Specs: []fault.Spec{{Kind: fault.Drop, Prob: 1}}}); got != -99 {
		t.Errorf("dropped export still wrote output: %g", got)
	}
}

// TestSetFaultPlanConcurrentWithLaunch swaps the fault plan while
// launches are in flight. The plan pointer is an atomic swap, so this
// must be race-clean (the -race run enforces it) and every launch must
// observe either a coherent plan or none — never a torn one.
func TestSetFaultPlanConcurrentWithLaunch(t *testing.T) {
	ctx, m := faultCtx(t, nil)
	plans := []*fault.Plan{
		nil,
		{Specs: []fault.Spec{{Kind: fault.Transient, Prob: 1}}},
		{Specs: []fault.Spec{{Kind: fault.Throttle, Prob: 1, Factor: 0.5}}},
	}
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ctx.SetFaultPlan(plans[i%len(plans)])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := ctx.Launch(m, fCfg())
				if err != nil && !errors.Is(err, ErrLaunchTransient) {
					t.Errorf("launch under plan swap: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapperDone
}
