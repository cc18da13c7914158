// Package cal is the runtime layer of the reproduction: a Compute
// Abstraction Layer shaped like the StreamSDK API the paper programs
// against. Applications open a (simulated) device, create a context,
// compile IL kernels into modules, allocate 2D resources, bind them, and
// launch over a domain of execution. A launch returns an event carrying
// the simulated kernel timing — the quantity every micro-benchmark
// measures — and can optionally execute the kernel functionally so
// examples can verify numerical results.
package cal

import (
	"errors"
	"fmt"
	"sync/atomic"

	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// Device is an opened GPU.
type Device struct {
	spec device.Spec
}

// OpenDevice opens one of the three modelled GPUs.
func OpenDevice(arch device.Arch) (*Device, error) {
	return OpenCustomDevice(device.Lookup(arch))
}

// OpenCustomDevice opens a user-defined (e.g. future-generation) chip.
func OpenCustomDevice(spec device.Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("cal: %w", err)
	}
	return &Device{spec: spec}, nil
}

// Info returns the device's parameter table.
func (d *Device) Info() device.Spec { return d.spec }

// Context is a command context on a device: a thin client of the staged
// launch pipeline (see internal/pipeline). Contexts are safe for
// concurrent launches, and the fault plan may be swapped at any time,
// including while launches are in flight.
type Context struct {
	dev  *Device
	pipe *pipeline.Pipeline
	plan atomic.Pointer[fault.Plan]

	// Per-fault-kind injection counters, resolved once from the
	// pipeline's metrics registry so every context sharing a pipeline
	// accumulates into the same set.
	launchCount *obs.Counter
	faultCounts map[string]*obs.Counter
}

// CreateContext creates a context with its own artifact-caching
// pipeline.
func (d *Device) CreateContext() *Context {
	return d.CreateContextWith(nil)
}

// CreateContextWith creates a context that stages its module loads and
// launches through an existing pipeline, sharing its artifact caches
// with every other context on the same pipeline. A nil pipeline gets a
// fresh one.
func (d *Device) CreateContextWith(p *pipeline.Pipeline) *Context {
	if p == nil {
		p = pipeline.New(pipeline.Options{})
	}
	reg := p.Metrics()
	faults := make(map[string]*obs.Counter, 6)
	for _, kind := range []string{"hang", "transient", "throttle", "corrupt", "drop", "device_lost"} {
		faults[kind] = reg.Counter("cal.fault." + kind)
	}
	return &Context{
		dev:         d,
		pipe:        p,
		launchCount: reg.Counter("cal.launches"),
		faultCounts: faults,
	}
}

// Pipeline returns the staged pipeline behind the context's launches.
func (c *Context) Pipeline() *pipeline.Pipeline { return c.pipe }

// SetFaultPlan arms deterministic fault injection on every subsequent
// launch; nil disarms it. It is safe to call concurrently with Launch:
// in-flight launches use whichever plan they observed. See package
// fault.
func (c *Context) SetFaultPlan(p *fault.Plan) { c.plan.Store(p) }

// Module is an IL kernel loaded with its compiler options. It compiles
// only when something needs the program: a launch the pipeline's
// simulate store cannot serve, functional execution, Program, Disassemble
// or Stats.
type Module struct {
	Kernel *il.Sealed
	opts   ilc.Options
	ctx    *Context
}

// LoadModule loads a sealed IL kernel for the context's device. Loading
// one kernel many times, as a sweep does, validates it once.
func (c *Context) LoadModule(k *il.Sealed) (*Module, error) {
	return c.LoadModuleWith(k, ilc.Options{})
}

// LoadModuleWith loads with explicit compiler options (ablations). A
// kernel the device cannot compile fails here, before any launch.
func (c *Context) LoadModuleWith(k *il.Sealed, opts ilc.Options) (*Module, error) {
	if err := ilc.Check(k, c.dev.spec); err != nil {
		return nil, fmt.Errorf("cal: %w", err)
	}
	return &Module{Kernel: k, opts: opts, ctx: c}, nil
}

// Program compiles the module through the pipeline's memoized Compile
// stage. LoadModule ran the compiler's checks, so only a compiler bug can
// fail it; that panics.
func (m *Module) Program() *isa.Program {
	prog, err := m.ctx.pipe.Compile(m.Kernel, m.ctx.dev.spec, m.opts)
	if err != nil {
		panic("cal: " + err.Error())
	}
	return prog
}

// Disassemble returns the module's ISA listing (Fig. 2 style).
func (m *Module) Disassemble() string { return isa.Disassemble(m.Program()) }

// Stats returns the module's static analysis, what the SKA tool reports.
func (m *Module) Stats() isa.Stats { return m.Program().Stats() }

// Resource is a 2D surface: an input texture/buffer or an output buffer.
type Resource struct {
	W, H  int
	Type  il.DataType
	Space il.MemSpace
	data  []float32 // lane-major: (y*W+x)*lanes + lane
}

// AllocResource2D allocates a W x H surface.
func (c *Context) AllocResource2D(w, h int, dt il.DataType, space il.MemSpace) (*Resource, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("cal: bad resource size %dx%d", w, h)
	}
	return &Resource{W: w, H: h, Type: dt, Space: space,
		data: make([]float32, w*h*dt.Lanes())}, nil
}

// Set writes one element's lane.
func (r *Resource) Set(x, y, lane int, v float32) error {
	i, err := r.index(x, y, lane)
	if err != nil {
		return err
	}
	r.data[i] = v
	return nil
}

// At reads one element's lane.
func (r *Resource) At(x, y, lane int) (float32, error) {
	i, err := r.index(x, y, lane)
	if err != nil {
		return 0, err
	}
	return r.data[i], nil
}

// Fill sets every element lane from a generator, a convenience for
// uploading synthetic workloads.
func (r *Resource) Fill(f func(x, y, lane int) float32) {
	lanes := r.Type.Lanes()
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			for l := 0; l < lanes; l++ {
				r.data[(y*r.W+x)*lanes+l] = f(x, y, l)
			}
		}
	}
}

func (r *Resource) index(x, y, lane int) (int, error) {
	if x < 0 || x >= r.W || y < 0 || y >= r.H || lane < 0 || lane >= r.Type.Lanes() {
		return 0, fmt.Errorf("cal: access (%d,%d) lane %d outside %dx%d %s resource", x, y, lane, r.W, r.H, r.Type)
	}
	return (y*r.W+x)*r.Type.Lanes() + lane, nil
}

// LaunchConfig binds resources and picks the execution shape.
type LaunchConfig struct {
	Order raster.Order
	W, H  int
	// Iterations defaults to the paper's 5000 when zero.
	Iterations int
	// Inputs and Outputs bind resources by index to the kernel's
	// declared inputs/outputs; both may be nil for timing-only launches.
	Inputs  []*Resource
	Outputs []*Resource
	// Constants binds the constant buffer cb0: element i, lane l reads
	// Constants[i][l]. Unbound elements read as zero.
	Constants [][4]float32
	// Functional also executes the kernel on the bound resources
	// (requires non-nil bindings). Functional execution interprets every
	// thread; keep domains small when enabling it.
	Functional bool
	// Ablate selectively disables hardware mechanisms in the timing
	// simulation (see sim.Ablations).
	Ablate sim.Ablations
	// DeadlineCycles is the per-launch watchdog budget: a steady-state
	// batch that has not drained within it aborts with ErrKernelTimeout.
	// Zero uses the simulator's default budget.
	DeadlineCycles uint64
	// Attempt numbers retries of the same logical launch; it feeds the
	// fault-injection key so a transient fault can clear on re-issue.
	Attempt int
	// Span, when non-zero, is the caller's tracing span for this launch;
	// the pipeline stages (simulate, and compile/trace/replay inside it
	// on a store miss) record themselves as its children. The zero Span
	// is a no-op.
	Span obs.Span
}

// Event is the result of a launch.
type Event struct {
	Result sim.Result
	// Injected records the faults that struck the launch but let it
	// complete (throttled clocks, corrupted fetches, dropped exports);
	// faults that fail the launch surface as *LaunchError instead.
	Injected fault.Injection
}

// ElapsedSeconds returns the simulated wall-clock time of the launch
// (kernel invocation and execution only; no off-board transfers, exactly
// the paper's timing discipline).
func (e *Event) ElapsedSeconds() float64 { return e.Result.Seconds }

// Bottleneck returns the limiting resource classification.
func (e *Event) Bottleneck() sim.Bottleneck { return e.Result.Bottleneck }

// Launch runs a module over a domain. Failures carry the package's error
// taxonomy: errors.Is(err, ErrKernelTimeout) for watchdog aborts,
// ErrLaunchTransient for flaky (injected) launch failures, ErrDeviceLost
// for a dead device.
func (c *Context) Launch(m *Module, cfg LaunchConfig) (*Event, error) {
	c.launchCount.Inc()
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("cal: bad domain %dx%d", cfg.W, cfg.H)
	}
	if cfg.Inputs != nil || cfg.Outputs != nil || cfg.Functional {
		if err := c.validateBindings(m, cfg); err != nil {
			return nil, err
		}
	}

	arch := c.dev.spec.Arch
	// The launch key costs a format and a hash; only an armed plan
	// draws from it.
	var inj fault.Injection
	if plan := c.plan.Load(); plan != nil {
		inj = plan.Draw(m.Kernel.Name, fault.Key(m.Kernel.Name, arch.String(), cfg.W, cfg.H, cfg.Attempt))
	}
	c.countInjection(inj)
	if inj.DeviceLost {
		return nil, &LaunchError{Kind: ErrDeviceLost, Arch: arch, Kernel: m.Kernel.Name, Injected: inj}
	}
	if inj.Transient {
		return nil, &LaunchError{Kind: ErrLaunchTransient, Arch: arch, Kernel: m.Kernel.Name, Injected: inj}
	}

	simCfg := sim.Config{
		Spec:        c.dev.spec,
		Order:       cfg.Order,
		W:           cfg.W,
		H:           cfg.H,
		Iterations:  cfg.Iterations,
		Ablate:      cfg.Ablate,
		Watchdog:    cfg.DeadlineCycles,
		ClockFactor: inj.Throttle,
	}
	if inj.Hang {
		simCfg.Hang = &sim.HangFault{Clause: inj.HangClause}
		// A hang only manifests as a timeout if a finite deadline is
		// armed; an unattended sweep always arms one.
		if simCfg.Watchdog == 0 {
			simCfg.Watchdog = sim.DefaultWatchdogBudget
		}
	}
	res, err := c.pipe.Simulate(cfg.Span, m.Kernel, m.opts, simCfg)
	if err != nil {
		var wde *sim.WatchdogError
		if errors.As(err, &wde) {
			return nil, &LaunchError{Kind: ErrKernelTimeout, Arch: arch, Kernel: m.Kernel.Name, Injected: inj, Diag: wde}
		}
		return nil, fmt.Errorf("cal: %w", err)
	}
	if cfg.Functional {
		if err := c.executeFunctional(m, cfg, inj); err != nil {
			return nil, err
		}
	}
	return &Event{Result: res, Injected: inj}, nil
}

// countInjection tallies each fault kind that struck a launch into the
// pipeline's metrics registry (cal.fault.*).
func (c *Context) countInjection(inj fault.Injection) {
	if !inj.Any() {
		return
	}
	if inj.Hang {
		c.faultCounts["hang"].Inc()
	}
	if inj.Transient {
		c.faultCounts["transient"].Inc()
	}
	if inj.Throttle != 0 {
		c.faultCounts["throttle"].Inc()
	}
	if inj.Corrupt {
		c.faultCounts["corrupt"].Inc()
	}
	if inj.Drop {
		c.faultCounts["drop"].Inc()
	}
	if inj.DeviceLost {
		c.faultCounts["device_lost"].Inc()
	}
}

func (c *Context) validateBindings(m *Module, cfg LaunchConfig) error {
	k := m.Kernel
	if len(cfg.Inputs) != k.NumInputs {
		return fmt.Errorf("cal: kernel %q declares %d inputs, %d bound", k.Name, k.NumInputs, len(cfg.Inputs))
	}
	if len(cfg.Outputs) != k.NumOutputs {
		return fmt.Errorf("cal: kernel %q declares %d outputs, %d bound", k.Name, k.NumOutputs, len(cfg.Outputs))
	}
	check := func(r *Resource, what string, i int, space il.MemSpace) error {
		if r == nil {
			return fmt.Errorf("cal: %s %d is nil", what, i)
		}
		if r.W < cfg.W || r.H < cfg.H {
			return fmt.Errorf("cal: %s %d is %dx%d, smaller than the %dx%d domain", what, i, r.W, r.H, cfg.W, cfg.H)
		}
		if r.Type != k.Type {
			return fmt.Errorf("cal: %s %d is %s but kernel is %s", what, i, r.Type, k.Type)
		}
		if r.Space != space {
			return fmt.Errorf("cal: %s %d allocated in %s space but kernel reads/writes %s", what, i, r.Space, space)
		}
		return nil
	}
	for i, r := range cfg.Inputs {
		if err := check(r, "input", i, k.InputSpace); err != nil {
			return err
		}
	}
	for i, r := range cfg.Outputs {
		if err := check(r, "output", i, k.OutSpace); err != nil {
			return err
		}
	}
	return nil
}

// executeFunctional interprets the kernel for every thread of the domain
// and writes the bound outputs. Injected data faults act here: Corrupt
// perturbs fetched values, Drop silently discards the writes — the
// silent-corruption failure modes a measurement campaign must be able to
// rehearse detecting.
func (c *Context) executeFunctional(m *Module, cfg LaunchConfig, inj fault.Injection) error {
	prog := m.Program()
	env := interp.Env{
		W: cfg.W, H: cfg.H,
		Input: func(res, x, y, l int) float32 {
			v, err := cfg.Inputs[res].At(x, y, l)
			if err != nil {
				return 0
			}
			if inj.Corrupt {
				v = fault.CorruptValue(v, x, y, l)
			}
			return v
		},
		Const: func(idx, l int) float32 {
			if idx < 0 || idx >= len(cfg.Constants) || l < 0 || l > 3 {
				return 0
			}
			return cfg.Constants[idx][l]
		},
	}
	lanes := m.Kernel.Type.Lanes()
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			out, err := interp.RunISA(prog, env, interp.Thread{X: x, Y: y})
			if err != nil {
				return fmt.Errorf("cal: functional execution at (%d,%d): %w", x, y, err)
			}
			for idx, vec := range out {
				if inj.Drop {
					continue
				}
				for l := 0; l < lanes; l++ {
					if err := cfg.Outputs[idx].Set(x, y, l, vec[l]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
