package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
)

// A repro bundle is a self-contained directory describing one oracle
// violation well enough to replay it: the campaign seed and fault plan,
// the implicated (shrunk) kernel as IL text, the sweep coordinates, and
// a README a human can act on without reading this package. The layout
// follows the benchmark-artifact convention of shipping inputs, the
// collection recipe and the observed result together.
//
//	<dir>/bundle.json  — machine-readable metadata (BundleVersion)
//	<dir>/kernel.il    — il.Assemble of the shrunk kernel, when one exists
//	<dir>/README.md    — what broke, how it was found, how to replay it

// BundleVersion is bumped when bundle.json's schema changes.
const BundleVersion = 1

// Bundle is bundle.json's schema.
type Bundle struct {
	Version int    `json:"version"`
	Oracle  string `json:"oracle"`
	Seed    int64  `json:"seed"`
	Step    int    `json:"step"`
	Detail  string `json:"detail"`
	// FaultPlan is the campaign's fault plan in fault.Parse syntax;
	// empty when no faults were armed.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Sweep coordinates of the implicated point, when the violation is
	// kernel-specific.
	Arch     string  `json:"arch,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	DataType string  `json:"data_type,omitempty"`
	BlockW   int     `json:"block_w,omitempty"`
	BlockH   int     `json:"block_h,omitempty"`
	X        float64 `json:"x,omitempty"`
	W        int     `json:"w,omitempty"`
	H        int     `json:"h,omitempty"`
	// KernelFile names the IL file; ShrunkFrom is the instruction count
	// before minimization (0 = shrinking did not apply).
	KernelFile string `json:"kernel_file,omitempty"`
	ShrunkFrom int    `json:"shrunk_from,omitempty"`
	// Repro is the command that re-runs the originating campaign.
	Repro string `json:"repro"`
}

// writeBundle renders a violation into cfg.BundleDir and returns the
// bundle directory.
func writeBundle(cfg Config, v Violation) (string, error) {
	dir := filepath.Join(cfg.BundleDir, fmt.Sprintf("step%03d_%s", v.Step, v.Oracle))
	for i := 1; ; i++ {
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			break
		}
		dir = filepath.Join(cfg.BundleDir, fmt.Sprintf("step%03d_%s_%d", v.Step, v.Oracle, i))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	b := Bundle{
		Version: BundleVersion,
		Oracle:  v.Oracle,
		Seed:    cfg.Seed,
		Step:    v.Step,
		Detail:  v.Detail,
		Repro:   reproCommand(cfg, v),
	}
	if cfg.Faults != nil {
		b.FaultPlan = cfg.Faults.String()
	}
	if v.Kernel != nil {
		b.Arch = v.Point.Card.Arch.String()
		b.Mode = modeName(v.Point.Card.Mode)
		b.DataType = typeName(v.Point.Card.Type)
		b.BlockW, b.BlockH = v.Point.Card.BlockW, v.Point.Card.BlockH
		b.X, b.W, b.H = v.Point.X, v.Point.W, v.Point.H
		b.KernelFile = "kernel.il"
		b.ShrunkFrom = v.ShrunkFrom
		if err := os.WriteFile(filepath.Join(dir, "kernel.il"),
			[]byte(il.Assemble(v.Kernel)), 0o644); err != nil {
			return "", err
		}
	}

	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "bundle.json"), append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte(bundleReadme(b)), 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// reproCommand renders the campaign invocation that found the
// violation. Replaying up to and including the violating step suffices;
// every step is independent of the ones before it.
func reproCommand(cfg Config, v Violation) string {
	cmd := fmt.Sprintf("amdmb soak -seed %d -steps %d", cfg.Seed, v.Step+1)
	if cfg.Faults != nil {
		cmd += fmt.Sprintf(" -faults %q", cfg.Faults.String())
	}
	if cfg.KillEvery > 0 {
		cmd += fmt.Sprintf(" -kill-every %d", cfg.KillEvery)
	}
	if cfg.MaxDomain > 0 {
		cmd += fmt.Sprintf(" -max-domain %d", cfg.MaxDomain)
	}
	return cmd
}

func bundleReadme(b Bundle) string {
	s := "# Soak repro bundle\n\n" +
		fmt.Sprintf("The `%s` oracle was violated at step %d of the soak campaign seeded %d.\n\n", b.Oracle, b.Step, b.Seed) +
		"## What is here\n\n" +
		"- `bundle.json` — machine-readable metadata (`soak.Bundle`, version " + fmt.Sprint(b.Version) + ")\n"
	if b.KernelFile != "" {
		s += fmt.Sprintf("- `%s` — the implicated IL kernel", b.KernelFile)
		if b.ShrunkFrom > 0 {
			s += fmt.Sprintf(", shrunk from %d instructions by the conformance minimizer", b.ShrunkFrom)
		}
		s += "\n"
	}
	s += "\n## Observed\n\n```\n" + b.Detail + "\n```\n\n## Replay\n\n```\n" + b.Repro + "\n```\n"
	if b.KernelFile != "" {
		s += fmt.Sprintf("\nThe kernel ran on %s in %s mode (%s) over a %dx%d domain at x=%g.\n",
			b.Arch, b.Mode, b.DataType, b.W, b.H, b.X)
	}
	if b.FaultPlan != "" {
		s += fmt.Sprintf("\nFault plan in effect: `%s`.\n", b.FaultPlan)
	}
	return s
}

// LoadBundle reads a bundle directory back: metadata plus the parsed
// kernel, when one is included.
func LoadBundle(dir string) (*Bundle, *il.Kernel, error) {
	data, err := os.ReadFile(filepath.Join(dir, "bundle.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("soak: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("soak: bundle.json: %w", err)
	}
	if b.Version != BundleVersion {
		return nil, nil, fmt.Errorf("soak: bundle version %d, want %d", b.Version, BundleVersion)
	}
	var k *il.Kernel
	if b.KernelFile != "" {
		src, err := os.ReadFile(filepath.Join(dir, b.KernelFile))
		if err != nil {
			return nil, nil, fmt.Errorf("soak: %w", err)
		}
		k, err = il.Parse(string(src))
		if err != nil {
			return nil, nil, fmt.Errorf("soak: %s: %w", b.KernelFile, err)
		}
	}
	return &b, k, nil
}

// ReplayBundle re-runs a bundle's oracle against its recorded kernel
// and coordinates. It returns nil when the violation no longer
// reproduces (fixed), and a descriptive error when it still does — the
// shape `amdmb soak -replay <dir>` and the regression tests want.
// Replaying an "injected" bundle requires the same TestOracle in cfg.
func ReplayBundle(dir string, cfg Config) error {
	b, k, err := LoadBundle(dir)
	if err != nil {
		return err
	}
	cfg.Seed = b.Seed
	if b.FaultPlan != "" && cfg.Faults == nil {
		cfg.Faults, err = fault.Parse(b.FaultPlan)
		if err != nil {
			return fmt.Errorf("soak: bundle fault plan %q: %w", b.FaultPlan, err)
		}
	}
	cfg = cfg.withDefaults()

	switch b.Oracle {
	case OracleInjected:
		if cfg.TestOracle == nil {
			return fmt.Errorf("soak: replaying an injected-oracle bundle needs cfg.TestOracle")
		}
		if k == nil {
			return fmt.Errorf("soak: injected bundle has no kernel")
		}
		if oerr := cfg.TestOracle(k); oerr != nil {
			return fmt.Errorf("soak: bundle still reproduces: %v", oerr)
		}
		return nil
	case OracleDeterminism:
		if k == nil {
			return fmt.Errorf("soak: determinism bundle has no kernel")
		}
		p, err := bundlePoint(b, k)
		if err != nil {
			return err
		}
		c := &campaign{cfg: cfg}
		if c.determinismPred(p)(k) {
			return fmt.Errorf("soak: bundle still reproduces: cached and uncached runs of %s diverge", k.Name)
		}
		return nil
	default:
		return fmt.Errorf("soak: oracle %q bundles are evidence, not replayable checks", b.Oracle)
	}
}

// bundlePoint reconstructs the sweep point a bundle recorded.
func bundlePoint(b *Bundle, k *il.Kernel) (core.KernelPoint, error) {
	arch, err := device.ParseArch(b.Arch)
	if err != nil {
		return core.KernelPoint{}, fmt.Errorf("soak: bundle names %w", err)
	}
	card := core.Card{Arch: arch, Mode: k.Mode, Type: k.Type, BlockW: b.BlockW, BlockH: b.BlockH}
	return core.KernelPoint{Card: card, X: b.X, K: il.Seal(k), W: b.W, H: b.H}, nil
}

func modeName(m il.ShaderMode) string {
	if m == il.Compute {
		return "compute"
	}
	return "pixel"
}

func typeName(t il.DataType) string {
	if t == il.Float4 {
		return "float4"
	}
	return "float"
}
