package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/report"
)

// The infer subcommand: the suite measures, then proves, its own cache
// model. For each selected device it runs the memory-hierarchy
// dissection of internal/hier — pointer-chase ladders, stride-resonance
// and cold-miss-blend probes, executed through the suite's staged
// pipeline — and recovers L1/L2 capacity, line size, associativity and
// the miss-hit latency delta from the measured curves alone. The
// recovered model is diffed against the device table's ground truth:
//
//	amdmb infer                 # all built-in devices
//	amdmb infer -archs rv770    # one device
//	amdmb infer -csv            # machine-readable rows, one per parameter
//
// Exit status: 0 when every inferred parameter agrees with the device
// table, 1 on a fatal error, 2 on usage errors, 3 when inference
// completed but one or more parameters mismatched.
//
// There is deliberately no -max-domain here: the stride probes encode
// the cache stride in the surface width, so clamping domains would
// silently corrupt the geometry being measured rather than shrink the
// sweep.

// runInferCmd is the `amdmb infer` entry point; argv excludes the
// "infer" word itself.
func runInferCmd(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amdmb infer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		iters   int
		archs   string
		asCSV   bool
		noCache bool
	)
	fs.IntVar(&iters, "iters", 0, "kernel iterations per timing (default 5000; inference is iteration-invariant)")
	fs.StringVar(&archs, "archs", "", "comma-separated ASICs to dissect (rv670,rv770,rv870; default all)")
	fs.BoolVar(&asCSV, "csv", false, "emit one CSV row per parameter instead of tables")
	fs.BoolVar(&noCache, "no-cache", false, "disable content-addressed artifact caching")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "amdmb infer: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if iters < 0 {
		fmt.Fprintf(stderr, "amdmb infer: -iters must not be negative (got %d)\n", iters)
		return 2
	}
	specs, err := selectArchs(archs)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb infer: %v\n", err)
		return 2
	}

	if asCSV {
		fmt.Fprintln(stdout, "arch,param,inferred,truth,ok")
	}
	mismatched := 0
	for _, spec := range specs {
		s := core.NewSuite()
		s.Iterations = iters
		s.DisableArtifactCache = noCache
		inf, diff, err := hier.InferArch(s, spec.Arch, hier.Config{})
		if err != nil {
			fmt.Fprintf(stderr, "amdmb infer: %v\n", err)
			return 1
		}
		mismatched += len(diff)
		if asCSV {
			emitInferCSV(stdout, spec, inf, diff)
		} else {
			fmt.Fprintln(stdout, inferTable(spec, inf, diff).Format())
		}
	}
	if mismatched > 0 {
		fmt.Fprintf(stderr, "amdmb infer: %d parameter(s) disagree with the device model\n", mismatched)
		return 3
	}
	return 0
}

// selectArchs resolves the -archs flag to device specs, defaulting to
// every built-in device.
func selectArchs(archs string) ([]device.Spec, error) {
	if archs == "" {
		return device.All(), nil
	}
	var out []device.Spec
	for _, name := range strings.Split(archs, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		a, err := device.ParseArch(name)
		if err != nil {
			return nil, err
		}
		out = append(out, device.Lookup(a))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-archs lists no devices")
	}
	return out, nil
}

// inferParams flattens the recovered model and the ground truth into
// aligned (param, inferred, truth) rows, in the order Diff reports.
func inferParams(spec device.Spec, inf hier.Inferred) [][3]string {
	delta := float64(spec.TexMissLatency - spec.TexHitLatency)
	return [][3]string{
		{"l1-bytes", fmt.Sprintf("%d", inf.L1Bytes), fmt.Sprintf("%d", spec.L1CacheBytes)},
		{"l1-line-bytes", fmt.Sprintf("%d", inf.L1LineBytes), fmt.Sprintf("%d", spec.L1LineBytes)},
		{"l1-ways", fmt.Sprintf("%d", inf.L1Ways), fmt.Sprintf("%d", spec.L1Ways)},
		{"l2-bytes", fmt.Sprintf("%d", inf.L2Bytes), fmt.Sprintf("%d", spec.L2CacheBytes)},
		{"l2-ways", fmt.Sprintf("%d", inf.L2Ways), fmt.Sprintf("%d", spec.L2Ways)},
		{"miss-delta", fmt.Sprintf("%.1f", inf.MissDelta), fmt.Sprintf("%.1f", delta)},
	}
}

func inferTable(spec device.Spec, inf hier.Inferred, diff []hier.Mismatch) *report.Table {
	bad := make(map[string]bool, len(diff))
	for _, m := range diff {
		bad[m.Param] = true
	}
	t := &report.Table{
		Title:  fmt.Sprintf("HD %s (%s): inferred cache model vs device table (%d probes)", spec.Arch.CardName(), spec.Arch, inf.Probes),
		Header: []string{"parameter", "inferred", "ground truth", "verdict"},
	}
	for _, row := range inferParams(spec, inf) {
		verdict := "match"
		if bad[row[0]] {
			verdict = "MISMATCH"
		}
		t.AddRow(row[0], row[1], row[2], verdict)
	}
	return t
}

func emitInferCSV(w io.Writer, spec device.Spec, inf hier.Inferred, diff []hier.Mismatch) {
	bad := make(map[string]bool, len(diff))
	for _, m := range diff {
		bad[m.Param] = true
	}
	for _, row := range inferParams(spec, inf) {
		fmt.Fprintf(w, "%s,%s,%s,%s,%t\n", spec.Arch, row[0], row[1], row[2], !bad[row[0]])
	}
}
