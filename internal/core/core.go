// Package core is the micro-benchmark suite itself: the paper's primary
// contribution. Each benchmark generates parameterised IL kernels
// (internal/kerngen), compiles them through the CAL layer, times them on
// the simulated GPUs, and emits a report figure shaped like the paper's:
//
//	ALUFetchRatio   — Figs. 7, 8, 9, 10
//	ReadLatency     — Figs. 11 (texture) and 12 (global)
//	WriteLatency    — Figs. 13 (streaming store) and 14 (global write)
//	DomainSize      — Fig. 15 (a) pixel and (b) compute
//	RegisterUsage   — Figs. 16 and 17
//	ClauseUsage     — the Fig. 5 control experiment
//	HardwareTable   — Table I
//
// Beyond regenerating curves, every run reports which of the three
// hardware bottlenecks (ALU, texture fetch, memory) limited each kernel —
// the classification the paper argues is the starting point of any
// optimization.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/pipeline"
	"amdgpubench/internal/raster"
)

// Card is one plotted configuration: a GPU in a shader mode with a data
// type and (for compute mode) a block shape.
type Card struct {
	Arch   device.Arch
	Mode   il.ShaderMode
	Type   il.DataType
	BlockW int // compute-mode block width; 0 means the naive 64x1
	BlockH int
}

// Label renders the series name the way the paper's legends do, e.g.
// "4870 Compute Float4".
func (c Card) Label() string {
	mode := "Pixel"
	if c.Mode == il.Compute {
		mode = "Compute"
	}
	dt := "Float"
	if c.Type == il.Float4 {
		dt = "Float4"
	}
	return fmt.Sprintf("%s %s %s", c.Arch.CardName(), mode, dt)
}

// Order returns the card's domain walk.
func (c Card) Order() (raster.Order, error) {
	if c.Mode == il.Pixel {
		return raster.PixelOrder(), nil
	}
	bw, bh := c.BlockW, c.BlockH
	if bw == 0 && bh == 0 {
		return raster.Naive64x1(), nil
	}
	return raster.ComputeOrder(bw, bh)
}

// StandardCards returns the paper's default series set: every chip in
// pixel and (where supported) compute mode, for float and float4. The
// compute entries use the naive 64x1 block unless bw/bh override it.
func StandardCards(bw, bh int) []Card {
	return append(PixelCards(), ComputeCards(bw, bh)...)
}

// PixelCards returns only the pixel-mode series for all chips.
func PixelCards() []Card {
	var cards []Card
	for _, spec := range device.All() {
		for _, dt := range []il.DataType{il.Float, il.Float4} {
			cards = append(cards, Card{Arch: spec.Arch, Mode: il.Pixel, Type: dt})
		}
	}
	return cards
}

// ComputeCards returns only compute-mode series (RV770 and RV870) with the
// given block shape.
func ComputeCards(bw, bh int) []Card {
	var cards []Card
	for _, spec := range device.All() {
		if !spec.SupportsCompute {
			continue
		}
		for _, dt := range []il.DataType{il.Float, il.Float4} {
			cards = append(cards, Card{Arch: spec.Arch, Mode: il.Compute, Type: dt, BlockW: bw, BlockH: bh})
		}
	}
	return cards
}

// Suite runs the micro-benchmarks.
type Suite struct {
	// Iterations per kernel timing; zero uses the paper's 5000.
	Iterations int
	// Workers bounds sweep parallelism; zero uses GOMAXPROCS. Every sweep
	// point is an independent deterministic simulation, so results are
	// identical at any worker count.
	Workers int
	// Retries bounds re-issues of a transiently failing launch; each
	// retry backs off. Zero disables retries.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt; zero means 1ms.
	RetryBackoff time.Duration
	// DeadlineCycles arms the per-launch watchdog budget: a launch whose
	// steady-state batch has not drained within it fails with
	// cal.ErrKernelTimeout. Zero uses the simulator's default budget.
	DeadlineCycles uint64
	// Faults arms deterministic fault injection (see package fault) on
	// every device context the suite opens.
	Faults *fault.Plan
	// DisableArtifactCache turns off the pipeline's content-addressed
	// memoization: every sweep point regenerates, recompiles, re-replays
	// and re-simulates from scratch. Figures are bit-identical either
	// way; the switch exists for baselines (`amdmb -no-cache`) and the
	// cached-vs-uncached benchmarks. Set it before the first sweep.
	DisableArtifactCache bool
	// PersistDir, when non-empty, attaches the pipeline's persistent
	// on-disk simulate-result tier under this directory (`amdmb
	// -cache-dir`, the daemon's restart-replay store). It is the suite's
	// only durable store: an interrupted sweep rerun over the same
	// directory resumes, serving every launch it finished from disk, and
	// the work of shard processes sharing one directory combines in a
	// later run over it. Results
	// served from disk are bit-identical to recomputation. Set it before
	// the first sweep; DisableArtifactCache turns it off too.
	PersistDir string
	// Tracer, when non-nil, records one unit span per sweep point,
	// holding one launch span per attempt with the pipeline stages
	// (generate/compile/trace/replay/simulate) nested inside it, exported
	// as Chrome trace_event JSON (`amdmb -trace`). A nil Tracer costs one
	// pointer comparison per launch.
	Tracer *obs.Tracer
	// BeforeLaunch, when non-nil, runs before every kernel launch (every
	// attempt, every worker) with the point and its attempt index
	// (0-based). The soak campaigns use it to cancel a sweep at a
	// deterministic launch ordinal for kill/resume cycles, and tests to
	// inject panics; it runs inside the launch's panic fence and must be
	// safe for concurrent calls.
	BeforeLaunch func(p KernelPoint, attempt int)

	// pipe is the staged launch pipeline every context the suite opens
	// shares, so compile and replay artifacts are reused across cards,
	// figures and repeat runs.
	pipeOnce sync.Once
	pipe     *pipeline.Pipeline

	ctxMu    sync.Mutex
	contexts map[device.Spec]*cal.Context

	launched atomic.Int64

	// Sweep-level resilience counters (core.sweep.*), resolved once from
	// the pipeline's metrics registry.
	ctrOnce sync.Once
	ctr     *sweepCounters
}

// NewSuite constructs a suite.
func NewSuite() *Suite {
	return &Suite{contexts: make(map[device.Spec]*cal.Context)}
}

// Pipeline returns the suite's shared launch pipeline, creating it on
// first use with the suite's cache setting.
func (s *Suite) Pipeline() *pipeline.Pipeline {
	s.pipeOnce.Do(func() {
		s.pipe = pipeline.New(pipeline.Options{
			Disabled:   s.DisableArtifactCache,
			PersistDir: s.PersistDir,
		})
	})
	return s.pipe
}

// Metrics returns the suite's metrics registry — the one the shared
// pipeline, the cal contexts and the sweep runner all record into
// (`amdmb -metrics`).
func (s *Suite) Metrics() *obs.Registry { return s.Pipeline().Metrics() }

// sweepCounters are the resilience counters the sweep runner maintains.
type sweepCounters struct {
	completed   *obs.Counter // core.sweep.points.completed
	failed      *obs.Counter // core.sweep.points.failed
	retries     *obs.Counter // core.sweep.retries
	backoffNS   *obs.Counter // core.sweep.backoff_ns
	panics      *obs.Counter // core.sweep.panics
	timeouts    *obs.Counter // core.sweep.timeouts
	interrupted *obs.Counter // core.sweep.interrupted
}

// counters resolves the sweep counters once per suite.
func (s *Suite) counters() *sweepCounters {
	s.ctrOnce.Do(func() {
		reg := s.Metrics()
		s.ctr = &sweepCounters{
			completed:   reg.Counter("core.sweep.points.completed"),
			failed:      reg.Counter("core.sweep.points.failed"),
			retries:     reg.Counter("core.sweep.retries"),
			backoffNS:   reg.Counter("core.sweep.backoff_ns"),
			panics:      reg.Counter("core.sweep.panics"),
			timeouts:    reg.Counter("core.sweep.timeouts"),
			interrupted: reg.Counter("core.sweep.interrupted"),
		}
	})
	return s.ctr
}

// context returns the suite's one context per device spec, opening the
// device on first use: a built-in card and any custom spec (synthetic,
// future) alike, so every launch takes the same pipeline. It is safe
// for concurrent callers: workers racing on a cold spec open it once
// and share the result.
func (s *Suite) context(spec device.Spec) (*cal.Context, error) {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	if s.contexts == nil {
		s.contexts = make(map[device.Spec]*cal.Context)
	}
	if c, ok := s.contexts[spec]; ok {
		return c, nil
	}
	d, err := cal.OpenCustomDevice(spec)
	if err != nil {
		return nil, err
	}
	c := d.CreateContextWith(s.Pipeline())
	c.SetFaultPlan(s.Faults)
	s.contexts[spec] = c
	return c, nil
}

// KernelLaunches returns how many kernel launches the suite has issued,
// retries included.
func (s *Suite) KernelLaunches() int64 { return s.launched.Load() }

// Run is one timed kernel execution with its classification. A Run with
// a non-empty Err is a per-point failure record: the sweep survived it,
// the point has no timing.
type Run struct {
	Card       Card
	X          float64 // the swept parameter's value
	Seconds    float64
	GPRs       int
	GPRWrites  int // per-thread register-file writes of the launched program
	Waves      int
	HitRate    float64
	Bottleneck string
	// Err is the failure that exhausted the point's attempts; empty for a
	// successful run.
	Err string `json:",omitempty"`
	// Attempts is how many launches the point took (1 = first try).
	Attempts int `json:",omitempty"`
	// kind is the taxonomy sentinel the failure wrapped
	// (cal.ErrKernelTimeout, cal.ErrLaunchTransient or errLaunchPanic).
	// A sentinel, not the launch's error value, so two records of the
	// same failure still compare equal.
	kind error
}

// Failed reports whether the point is a failure record.
func (r Run) Failed() bool { return r.Err != "" }

// Failure returns a failure record's error, nil for a completed run.
// Its text is Err, and errors.Is sees the failure's kind, so a caller
// can tell a timeout (cal.ErrKernelTimeout) from an exhausted transient.
func (r Run) Failure() error {
	if !r.Failed() {
		return nil
	}
	return failure{r.Err, r.kind}
}

// failure is a failure record as an error.
type failure struct {
	msg  string
	kind error
}

func (f failure) Error() string { return f.msg }
func (f failure) Unwrap() error { return f.kind }

// params builds kerngen parameters for a card.
func (c Card) params(inputs, outputs int, inSpace, outSpace il.MemSpace) kerngen.Params {
	if c.Mode == il.Compute {
		outSpace = il.GlobalSpace // compute mode has no streaming stores
	}
	return kerngen.Params{
		Mode: c.Mode, Type: c.Type,
		Inputs: inputs, Outputs: outputs,
		InputSpace: inSpace, OutSpace: outSpace,
	}
}
