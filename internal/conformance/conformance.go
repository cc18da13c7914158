// Package conformance is the suite's verification subsystem. Every number
// the benchmarks report flows through IL generation -> ilc compilation ->
// cache replay -> simulation, and the hot-path rewrites those stages have
// absorbed make hand-picked test cases a thin defence. This package holds
// the systematic one:
//
//   - a seeded random-kernel generator (RandomKernel) covering the full IL
//     surface, strictly broader than the shapes kerngen emits;
//   - differential oracles (CheckKernel): the IL interpreter versus the
//     compiled-ISA interpreter element for element, Assemble->Parse
//     structural round-trips via Kernel.Hash, cached-versus-uncached
//     pipeline identity, disassembly and compiler determinism, and
//     dead-code elimination semantics;
//   - metamorphic invariants on the simulator and the cache replay
//     (metamorphic.go): monotonicity under added dependent ALU work,
//     domain-size linearity, replay conservation laws and rotation
//     invariance in the compulsory-miss regime;
//   - a counterexample shrinker (Shrink) that minimizes any failing kernel
//     before it is reported.
//
// The fuzz targets in this package expose the generator to `go test
// -fuzz`; a failing seed reproduces deterministically and shrinks to a
// few-instruction kernel. DESIGN.md section 10 documents the methodology.
package conformance

import (
	"fmt"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/pipeline"
)

// Divergence reports an oracle failure: which oracle tripped, what it saw,
// and the kernel (already shrunk by the caller, or raw) that triggered it.
type Divergence struct {
	Oracle string // "roundtrip", "differential", "pipeline", "disasm", "optimize"
	Detail string
	Kernel *il.Kernel
}

// Error renders the divergence with the offending kernel's assembly, so a
// fuzz crash report alone is enough to reproduce by hand.
func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s oracle: %s\nkernel:\n%s", d.Oracle, d.Detail, il.Assemble(d.Kernel))
}

// checkThreads are the domain positions every differential oracle executes:
// the origin, an axis edge, an interior point and the far corner of the
// DefaultEnv domain.
var checkThreads = []interp.Thread{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 5, Y: 3}, {X: 15, Y: 15}}

// DefaultEnv is the deterministic input environment the differential
// oracles run under. Values stay positive and moderate so rcp/rsq chains
// remain finite for many links; comparison is bitwise anyway, so the
// oracles stay sound even when a chain saturates to infinity.
func DefaultEnv() interp.Env {
	return interp.Env{
		W: 16, H: 16,
		Input: func(res, x, y, l int) float32 {
			return 0.5 + float32((res*31+x*7+y*13+l*3)%17)*0.25
		},
		Const: func(idx, l int) float32 {
			return 1 + float32((idx*5+l)%7)*0.5
		},
	}
}

// CheckKernel runs every differential oracle against one kernel and
// returns the first *Divergence, or nil when all oracles agree. The spec
// must support the kernel's shader mode.
func CheckKernel(k *il.Kernel, spec device.Spec) error {
	if err := CheckRoundTrip(k); err != nil {
		return err
	}
	if err := CheckCompileDifferential(k, spec); err != nil {
		return err
	}
	if err := CheckPipelineIdentity(k, spec); err != nil {
		return err
	}
	if err := CheckOptimizePreservesSemantics(k); err != nil {
		return err
	}
	return nil
}

// CheckRoundTrip asserts Assemble -> Parse is structurally lossless: the
// reparsed kernel's content hash (il.Kernel.Hash, the compile store's
// cache key) must equal the original's, and the assembly text must be a
// fixpoint. A violation means the cache could conflate or split kernels.
func CheckRoundTrip(k *il.Kernel) error {
	txt := il.Assemble(k)
	k2, err := il.Parse(txt)
	if err != nil {
		return &Divergence{Oracle: "roundtrip", Detail: fmt.Sprintf("Parse of assembled text failed: %v", err), Kernel: k}
	}
	if err := k2.Validate(); err != nil {
		return &Divergence{Oracle: "roundtrip", Detail: fmt.Sprintf("reparsed kernel invalid: %v", err), Kernel: k}
	}
	if k.Hash() != k2.Hash() {
		return &Divergence{
			Oracle: "roundtrip",
			Detail: fmt.Sprintf("structural hash changed across Assemble/Parse\nreparsed as:\n%s", il.Assemble(k2)),
			Kernel: k,
		}
	}
	if txt2 := il.Assemble(k2); txt2 != txt {
		return &Divergence{Oracle: "roundtrip", Detail: fmt.Sprintf("assembly text is not a fixpoint:\n%s", txt2), Kernel: k}
	}
	return nil
}

// CheckCompileDifferential compiles k and executes the IL and ISA
// interpreters element for element on the check threads; any bitwise
// output difference is a miscompile. It also asserts the compiler and the
// disassembler are deterministic: two independent compiles of the same
// kernel must disassemble identically.
func CheckCompileDifferential(k *il.Kernel, spec device.Spec) error {
	prog, err := ilc.CompileWith(k, spec, ilc.Options{})
	if err != nil {
		return &Divergence{Oracle: "differential", Detail: fmt.Sprintf("compile failed: %v", err), Kernel: k}
	}
	env := DefaultEnv()
	lanes := k.Type.Lanes()
	for _, th := range checkThreads {
		want, err := interp.RunIL(k, env, th)
		if err != nil {
			return &Divergence{Oracle: "differential", Detail: fmt.Sprintf("IL interpreter: %v", err), Kernel: k}
		}
		got, err := interp.RunISA(prog, env, th)
		if err != nil {
			return &Divergence{
				Oracle: "differential",
				Detail: fmt.Sprintf("ISA interpreter: %v\n%s", err, isa.Disassemble(prog)),
				Kernel: k,
			}
		}
		if !interp.OutputsEqual(want, got, lanes) {
			return &Divergence{
				Oracle: "differential",
				Detail: fmt.Sprintf("thread (%d,%d): IL %v != ISA %v\n%s", th.X, th.Y, want, got, isa.Disassemble(prog)),
				Kernel: k,
			}
		}
	}
	prog2, err := ilc.CompileWith(k, spec, ilc.Options{})
	if err != nil {
		return &Divergence{Oracle: "disasm", Detail: fmt.Sprintf("second compile failed: %v", err), Kernel: k}
	}
	d1, d2 := isa.Disassemble(prog), isa.Disassemble(prog2)
	if d1 != d2 {
		return &Divergence{Oracle: "disasm", Detail: fmt.Sprintf("compiler nondeterminism:\n%s\nvs\n%s", d1, d2), Kernel: k}
	}
	if again := isa.Disassemble(prog); again != d1 {
		return &Divergence{Oracle: "disasm", Detail: "Disassemble is not stable across calls", Kernel: k}
	}
	return nil
}

// CheckPipelineIdentity asserts the content-addressed compile store is
// invisible in results: a store hit must return the identical artifact,
// and a caching pipeline must produce the same program as a cache-disabled
// one.
func CheckPipelineIdentity(k *il.Kernel, spec device.Spec) error {
	cached := pipeline.New(pipeline.Options{})
	uncached := pipeline.New(pipeline.Options{Disabled: true})
	sk := il.Seal(k)
	p1, err := cached.Compile(sk, spec, ilc.Options{})
	if err != nil {
		return &Divergence{Oracle: "pipeline", Detail: fmt.Sprintf("cached compile failed: %v", err), Kernel: k}
	}
	p1b, err := cached.Compile(sk, spec, ilc.Options{})
	if err != nil {
		return &Divergence{Oracle: "pipeline", Detail: fmt.Sprintf("cached recompile failed: %v", err), Kernel: k}
	}
	if p1 != p1b {
		return &Divergence{Oracle: "pipeline", Detail: "compile store hit returned a different artifact", Kernel: k}
	}
	p2, err := uncached.Compile(sk, spec, ilc.Options{})
	if err != nil {
		return &Divergence{Oracle: "pipeline", Detail: fmt.Sprintf("uncached compile failed: %v", err), Kernel: k}
	}
	if d1, d2 := isa.Disassemble(p1), isa.Disassemble(p2); d1 != d2 {
		return &Divergence{Oracle: "pipeline", Detail: fmt.Sprintf("cached vs uncached programs differ:\n%s\nvs\n%s", d1, d2), Kernel: k}
	}
	return nil
}

// CheckOptimizePreservesSemantics runs dead-code elimination and asserts
// the optimized kernel computes bitwise-identical outputs — DCE may only
// remove work that never reaches a store. Because the pass renumbers
// surviving input resources, the optimized kernel runs under an
// environment remapped through the report's InputMap so both kernels
// read the same data.
func CheckOptimizePreservesSemantics(k *il.Kernel) error {
	opt, rep, err := ilc.Optimize(k)
	if err != nil {
		return &Divergence{Oracle: "optimize", Detail: fmt.Sprintf("Optimize failed: %v", err), Kernel: k}
	}
	if err := opt.Validate(); err != nil {
		return &Divergence{Oracle: "optimize", Detail: fmt.Sprintf("optimized kernel invalid: %v", err), Kernel: k}
	}
	env := DefaultEnv()
	optEnv := env
	if rep.InputMap != nil {
		inner := env.Input
		remap := rep.InputMap
		optEnv.Input = func(res, x, y, l int) float32 {
			return inner(remap[res], x, y, l)
		}
	}
	lanes := k.Type.Lanes()
	for _, th := range checkThreads {
		want, err := interp.RunIL(k, env, th)
		if err != nil {
			return &Divergence{Oracle: "optimize", Detail: fmt.Sprintf("IL interpreter: %v", err), Kernel: k}
		}
		got, err := interp.RunIL(opt, optEnv, th)
		if err != nil {
			return &Divergence{Oracle: "optimize", Detail: fmt.Sprintf("optimized IL interpreter: %v", err), Kernel: k}
		}
		if !interp.OutputsEqual(want, got, lanes) {
			return &Divergence{
				Oracle: "optimize",
				Detail: fmt.Sprintf("thread (%d,%d): original %v != optimized %v\noptimized:\n%s", th.X, th.Y, want, got, il.Assemble(opt)),
				Kernel: k,
			}
		}
	}
	return nil
}

// SpecFor picks a device spec compatible with the kernel's shader mode
// from an arbitrary selector byte, for seed-driven fuzzing: compute
// kernels never land on the compute-less RV670.
func SpecFor(k *il.Kernel, sel uint8) device.Spec {
	all := device.All()
	spec := all[int(sel)%len(all)]
	if k.Mode == il.Compute && !spec.SupportsCompute {
		spec = device.Lookup(device.RV770)
	}
	return spec
}
