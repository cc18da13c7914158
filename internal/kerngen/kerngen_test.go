package kerngen

import (
	"reflect"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/interp"
	"amdgpubench/internal/isa"
)

var rv770 = device.Lookup(device.RV770)

func pixelParams(inputs int) Params {
	return Params{Mode: il.Pixel, Type: il.Float, Inputs: inputs, Outputs: 1}
}

func TestGenericCounts(t *testing.T) {
	p := pixelParams(8)
	p.ALUOps = 40
	k, err := Generic(p)
	if err != nil {
		t.Fatal(err)
	}
	c := k.Counts()
	if c.Fetch != 8 || c.ALU != 40 || c.Store != 1 {
		t.Fatalf("counts = %+v, want 8 fetch / 40 alu / 1 store", c)
	}
}

func TestGenericPadsALUToFold(t *testing.T) {
	p := pixelParams(16)
	p.ALUOps = 3 // less than the 15 fold ops required
	k, err := Generic(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Counts().ALU; got != 15 {
		t.Fatalf("ALU = %d, want 15 (fold minimum)", got)
	}
}

func TestGenericRejectsTooFewInputs(t *testing.T) {
	if _, err := Generic(pixelParams(1)); err == nil {
		t.Fatal("1-input kernel accepted")
	}
}

func TestGenericRejectsComputeStreamStore(t *testing.T) {
	p := pixelParams(4)
	p.Mode = il.Compute
	p.OutSpace = il.TextureSpace
	p.ALUOps = 8
	if _, err := Generic(p); err == nil {
		t.Fatal("compute-mode streaming store accepted")
	}
}

func TestALUFetchRatioConvention(t *testing.T) {
	// Section III-A: 2 inputs at ratio 2.0 generate 16 ALU operations.
	p := pixelParams(2)
	p.ALUFetchRatio = 2.0
	k, err := ALUFetch(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Counts().ALU; got != 16 {
		t.Fatalf("ALU ops = %d, want 16 (2 inputs x 4 x 2.0)", got)
	}
	// The compiled program must report the same ratio through SKA rules.
	prog, err := ilc.Compile(k, rv770)
	if err != nil {
		t.Fatal(err)
	}
	if r := prog.Stats().ALUFetchSKA; r != 2.0 {
		t.Fatalf("SKA ratio = %v, want 2.0", r)
	}
}

func TestALUFetchNeedsRatio(t *testing.T) {
	if _, err := ALUFetch(pixelParams(4)); err == nil {
		t.Fatal("zero ratio accepted")
	}
}

func TestALUCountIndependentOfDataType(t *testing.T) {
	// The dependency chain defeats packing, so float and float4 kernels
	// compile to the same number of VLIW bundles (Section III).
	for _, dt := range []il.DataType{il.Float, il.Float4} {
		p := pixelParams(16)
		p.Type = dt
		p.ALUFetchRatio = 1.5
		k, err := ALUFetch(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ilc.Compile(k, rv770)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := prog.Stats().ALUBundles, 96; got != want {
			t.Fatalf("%s: bundles = %d, want %d", dt, got, want)
		}
	}
}

func TestReadLatencyPinsALU(t *testing.T) {
	for _, inputs := range []int{2, 9, 18} {
		p := pixelParams(inputs)
		k, err := ReadLatency(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Counts().ALU; got != inputs-1 {
			t.Fatalf("inputs=%d: ALU = %d, want %d", inputs, got, inputs-1)
		}
	}
}

func TestWriteLatencyConstantRegisters(t *testing.T) {
	// Section III-C: register usage must depend on the (constant) input
	// size, not the output count.
	var gprs []int
	for outputs := 1; outputs <= 8; outputs++ {
		p := pixelParams(8)
		p.Outputs = outputs
		k, err := WriteLatency(p)
		if err != nil {
			t.Fatal(err)
		}
		if k.Counts().Store != outputs {
			t.Fatalf("outputs=%d: stores = %d", outputs, k.Counts().Store)
		}
		prog, err := ilc.Compile(k, rv770)
		if err != nil {
			t.Fatal(err)
		}
		gprs = append(gprs, prog.GPRCount)
	}
	for i := 1; i < len(gprs); i++ {
		if gprs[i] != gprs[0] {
			t.Fatalf("GPRs vary with outputs: %v", gprs)
		}
	}
}

func TestDomainKernelShape(t *testing.T) {
	p := pixelParams(0)
	k, err := build(PrepareDomain(p))
	if err != nil {
		t.Fatal(err)
	}
	c := k.Counts()
	if c.Fetch != 8 || c.Store != 1 {
		t.Fatalf("domain kernel = %+v, want 8 inputs 1 output", c)
	}
	if c.ALU != 320 { // 8 x 4 x 10.0
		t.Fatalf("ALU = %d, want 320 (ratio 10)", c.ALU)
	}
}

func TestRegisterUsageSweepShrinksGPRs(t *testing.T) {
	// Fig. 16's x axis: with 64 inputs and space 8, increasing step moves
	// sampling later and monotonically shrinks peak register pressure,
	// from ~inputs down to ~initial+space.
	var gprs []int
	for step := 0; step <= 6; step++ {
		p := pixelParams(64)
		p.ALUFetchRatio = 4.0
		p.Space = 8
		p.Step = step
		k, err := RegisterUsage(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ilc.Compile(k, rv770)
		if err != nil {
			t.Fatal(err)
		}
		gprs = append(gprs, prog.GPRCount)
	}
	t.Logf("GPR sweep: %v", gprs)
	for i := 1; i < len(gprs); i++ {
		if gprs[i] >= gprs[i-1] {
			t.Fatalf("GPRs not strictly decreasing: %v", gprs)
		}
	}
	if gprs[0] < 64 || gprs[0] > 67 {
		t.Fatalf("step-0 GPRs = %d, want about 64", gprs[0])
	}
	last := gprs[len(gprs)-1]
	if last < 16 || last > 30 {
		t.Fatalf("step-6 GPRs = %d, want roughly initial(16)+space", last)
	}
}

func TestRegisterUsagePreservesWorkload(t *testing.T) {
	// Total fetches and ALU ops stay constant across the step sweep —
	// only placement changes.
	var fetches, alus []int
	for step := 0; step <= 6; step++ {
		p := pixelParams(64)
		p.ALUFetchRatio = 4.0
		p.Space = 8
		p.Step = step
		k, err := RegisterUsage(p)
		if err != nil {
			t.Fatal(err)
		}
		c := k.Counts()
		fetches = append(fetches, c.Fetch)
		alus = append(alus, c.ALU)
	}
	for i := 1; i < len(fetches); i++ {
		if fetches[i] != fetches[0] {
			t.Fatalf("fetch count varies with step: %v", fetches)
		}
		if alus[i] != alus[0] {
			t.Fatalf("ALU count varies with step: %v", alus)
		}
	}
}

func TestClauseUsageConstantGPRs(t *testing.T) {
	// Fig. 5's control: same ALU layout, all sampling up front, so GPR
	// usage stays maximal regardless of step.
	var gprs []int
	for step := 0; step <= 6; step++ {
		p := pixelParams(64)
		p.ALUFetchRatio = 4.0
		p.Space = 8
		p.Step = step
		k, err := build(PrepareClauseUsage(p))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ilc.Compile(k, rv770)
		if err != nil {
			t.Fatal(err)
		}
		gprs = append(gprs, prog.GPRCount)
	}
	for i := 1; i < len(gprs); i++ {
		if gprs[i] != gprs[0] {
			t.Fatalf("clause-usage GPRs vary: %v", gprs)
		}
	}
	if gprs[0] < 64 {
		t.Fatalf("clause-usage GPRs = %d, want >= 64", gprs[0])
	}
}

func TestRegisterUsageValidation(t *testing.T) {
	for _, g := range []struct {
		name string
		gen  func(Params) (*il.Kernel, error)
	}{{"register-usage", RegisterUsage}, {"clause-usage", func(p Params) (*il.Kernel, error) { return build(PrepareClauseUsage(p)) }}} {
		p := pixelParams(16)
		p.Space = 8
		p.Step = 2 // leaves 0 initial inputs
		_, err := g.gen(p)
		if want := "kerngen: space 8 x step 2 leaves 0 initial inputs (need >= 2)"; err == nil || err.Error() != want {
			t.Errorf("%s: empty initial group: err = %v, want %q", g.name, err, want)
		}
		p.Space = 0
		_, err = g.gen(p)
		if want := "kerngen: " + g.name + " kernel needs space > 0 and step >= 0"; err == nil || err.Error() != want {
			t.Errorf("%s: zero space: err = %v, want %q", g.name, err, want)
		}
	}
}

// TestClauseUsageIsRegisterUsageWithFetchesUpFront pins the Fig. 5
// control's identity with the Fig. 6 kernel: at every step the two
// kernels run the same ALU and export sequence and sample the same
// inputs into the same registers; only the fetches move. At step 0 no
// fetch moves, so the kernels are identical.
func TestClauseUsageIsRegisterUsageWithFetchesUpFront(t *testing.T) {
	withoutFetches := func(k *il.Kernel) []il.Instr {
		var out []il.Instr
		for _, in := range k.Code {
			if !in.Op.IsFetch() {
				out = append(out, in)
			}
		}
		return out
	}
	samples := func(k *il.Kernel) map[[2]int]int {
		set := map[[2]int]int{}
		for _, in := range k.Code {
			if in.Op.IsFetch() {
				set[[2]int{int(in.Dst), in.Res}]++
			}
		}
		return set
	}
	for _, mode := range []il.ShaderMode{il.Pixel, il.Compute} {
		for _, typ := range []il.DataType{il.Float, il.Float4} {
			for step := 0; step <= 7; step++ {
				p := Params{Mode: mode, Type: typ, Inputs: 64, Outputs: 1, ALUFetchRatio: 4, Space: 8, Step: step}
				if mode == il.Compute {
					p.OutSpace = il.GlobalSpace
				}
				reg, err := RegisterUsage(p)
				if err != nil {
					t.Fatal(err)
				}
				ctl, err := build(PrepareClauseUsage(p))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(withoutFetches(ctl), withoutFetches(reg)) {
					t.Errorf("%v %v step %d: ALU/export sequences differ", mode, typ, step)
				}
				if !reflect.DeepEqual(samples(ctl), samples(reg)) {
					t.Errorf("%v %v step %d: sampled (Dst, Res) pairs differ", mode, typ, step)
				}
				if step == 0 && ctl.Hash() != reg.Hash() {
					t.Errorf("%v %v step 0: Hash differs", mode, typ)
				}
			}
		}
	}
}

// TestGeneratedKernelsComputeCorrectSums runs every generator through the
// compiler and both interpreters: outputs must equal the sum of all
// inputs' values at the thread (every generated kernel is, semantically,
// a sum of its inputs plus chain doublings — IL and ISA must agree).
func TestGeneratedKernelsComputeCorrectSums(t *testing.T) {
	env := interp.Env{W: 16, H: 16, Input: func(res, x, y, l int) float32 {
		return float32(res+1) + float32(x)*0.5 + float32(y)*0.25
	}}
	mk := func(name string, gen func() (*il.Kernel, error)) {
		k, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := ilc.Compile(k, rv770)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		th := interp.Thread{X: 5, Y: 9}
		want, err := interp.RunIL(k, env, th)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := interp.RunISA(prog, env, th)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, isa.Disassemble(prog))
		}
		if !interp.OutputsEqual(want, got, k.Type.Lanes()) {
			t.Fatalf("%s: IL %v != ISA %v", name, want, got)
		}
	}
	mk("generic", func() (*il.Kernel, error) {
		p := pixelParams(8)
		p.ALUOps = 32
		return Generic(p)
	})
	mk("alufetch", func() (*il.Kernel, error) {
		p := pixelParams(16)
		p.ALUFetchRatio = 2.5
		return ALUFetch(p)
	})
	mk("readlat", func() (*il.Kernel, error) { return ReadLatency(pixelParams(12)) })
	mk("writelat", func() (*il.Kernel, error) {
		p := pixelParams(8)
		p.Outputs = 5
		return WriteLatency(p)
	})
	mk("domain", func() (*il.Kernel, error) { return build(PrepareDomain(pixelParams(8))) })
	mk("regusage", func() (*il.Kernel, error) {
		p := pixelParams(64)
		p.ALUFetchRatio = 4
		p.Space = 8
		p.Step = 6
		return RegisterUsage(p)
	})
	mk("clauseusage", func() (*il.Kernel, error) {
		p := pixelParams(64)
		p.ALUFetchRatio = 4
		p.Space = 8
		p.Step = 6
		return build(PrepareClauseUsage(p))
	})
}

func TestConstantsFoldIntoChain(t *testing.T) {
	p := pixelParams(8)
	p.ALUOps = 32
	p.Constants = 6
	k, err := Generic(p)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumConsts != 6 {
		t.Fatalf("NumConsts = %d, want 6", k.NumConsts)
	}
	// ALU count is unchanged: constants replace chain ops, not add them.
	if got := k.Counts().ALU; got != 32 {
		t.Fatalf("ALU = %d, want 32", got)
	}
	constOps := 0
	for _, in := range k.Code {
		if in.Op.ReadsConst() {
			constOps++
		}
	}
	if constOps != 6 {
		t.Fatalf("const-reading ops = %d, want 6", constOps)
	}
	// GPR count matches the constant-free kernel: constants are free.
	p0 := pixelParams(8)
	p0.ALUOps = 32
	k0, err := Generic(p0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilc.Compile(k, rv770)
	if err != nil {
		t.Fatal(err)
	}
	prog0, err := ilc.Compile(k0, rv770)
	if err != nil {
		t.Fatal(err)
	}
	if prog.GPRCount != prog0.GPRCount {
		t.Fatalf("constants changed GPRs: %d vs %d", prog.GPRCount, prog0.GPRCount)
	}
}

func TestConstantsSemantics(t *testing.T) {
	p := pixelParams(2)
	p.ALUOps = 4
	p.Constants = 3
	k, err := Generic(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilc.Compile(k, rv770)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.Env{
		W: 4, H: 4,
		Input: func(res, x, y, l int) float32 { return float32(res + x + 1) },
		Const: func(idx, l int) float32 { return float32(idx+1) * 10 },
	}
	th := interp.Thread{X: 2, Y: 1}
	want, err := interp.RunIL(k, env, th)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.RunISA(prog, env, th)
	if err != nil {
		t.Fatalf("%v\n%s", err, isa.Disassemble(prog))
	}
	if !interp.OutputsEqual(want, got, 1) {
		t.Fatalf("IL %v != ISA %v\n%s", want, got, isa.Disassemble(prog))
	}
}

// aluFetchAllocsCeiling is the measured allocation count of one
// ALUFetch build: the name, the kernel, its code (sized once, before
// emission) and Validate's working arrays.
const aluFetchAllocsCeiling = 7

func TestALUFetchAllocs(t *testing.T) {
	p := Params{Mode: il.Pixel, Type: il.Float, Inputs: 16, Outputs: 1, ALUFetchRatio: 8}
	if n := testing.AllocsPerRun(50, func() { ALUFetch(p) }); n > aluFetchAllocsCeiling {
		t.Errorf("ALUFetch allocates %.0f objects per build, ceiling %d", n, aluFetchAllocsCeiling)
	}
}

func TestPreparedSizesCodeExactly(t *testing.T) {
	// Build sizes the code from the settled parameters; a body that
	// emitted more or fewer instructions would regrow or waste it.
	for _, tc := range []struct {
		name    string
		prepare func(Params) (Prepared, error)
		p       Params
	}{
		{"generic+consts", PrepareGeneric, Params{Mode: il.Pixel, Type: il.Float, Inputs: 8, Outputs: 2, ALUOps: 20, Constants: 4}},
		{"alufetch", PrepareALUFetch, Params{Mode: il.Pixel, Type: il.Float4, Inputs: 16, Outputs: 1, ALUFetchRatio: 0.25}},
		{"readlat", PrepareReadLatency, pixelParams(18)},
		{"writelat", PrepareWriteLatency, Params{Mode: il.Pixel, Type: il.Float, Outputs: 8}},
		{"domain", PrepareDomain, Params{Mode: il.Compute, Type: il.Float, OutSpace: il.GlobalSpace}},
		{"regusage", PrepareRegisterUsage, Params{Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1, ALUFetchRatio: 1, Space: 8, Step: 7}},
		{"clauseusage", PrepareClauseUsage, Params{Mode: il.Pixel, Type: il.Float, Inputs: 64, Outputs: 1, ALUFetchRatio: 1, Space: 8, Step: 3}},
	} {
		pr, err := tc.prepare(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k, err := pr.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(k.Code) != cap(k.Code) {
			t.Errorf("%s: %d instructions in a code slice sized %d", tc.name, len(k.Code), cap(k.Code))
		}
		if k.Name != pr.Params.Name || k.Mode != pr.Params.Mode {
			t.Errorf("%s: built %q mode %v, prepared %q mode %v", tc.name, k.Name, k.Mode, pr.Params.Name, pr.Params.Mode)
		}
	}
}
