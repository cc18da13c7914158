package il

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"testing"
)

// goldenPixel exercises every pixel-mode declaration and instruction form.
func goldenPixel() *Kernel {
	return &Kernel{
		Name: "golden_px", Mode: Pixel, Type: Float4,
		NumInputs: 2, NumOutputs: 1,
		InputSpace: TextureSpace, OutSpace: TextureSpace,
		NumConsts: 3,
		Code: []Instr{
			{Op: OpSample, Dst: 0, SrcA: NoReg, SrcB: NoReg, Res: 0},
			{Op: OpSample, Dst: 1, SrcA: NoReg, SrcB: NoReg, Res: 1},
			{Op: OpAdd, Dst: 2, SrcA: 0, SrcB: 1, Res: -1},
			{Op: OpSub, Dst: 3, SrcA: 2, SrcB: 0, Res: -1},
			{Op: OpMul, Dst: 4, SrcA: 3, SrcB: 1, Res: -1},
			{Op: OpMov, Dst: 5, SrcA: 4, SrcB: NoReg, Res: -1},
			{Op: OpRcp, Dst: 6, SrcA: 5, SrcB: NoReg, Res: -1},
			{Op: OpRsq, Dst: 7, SrcA: 6, SrcB: NoReg, Res: -1},
			{Op: OpAddC, Dst: 8, SrcA: 7, SrcB: NoReg, Res: 1},
			{Op: OpMulC, Dst: 9, SrcA: 8, SrcB: NoReg, Res: 2},
			{Op: OpExport, Dst: NoReg, SrcA: 9, SrcB: NoReg, Res: 0},
		},
	}
}

// goldenCompute exercises the compute-mode/global-memory forms.
func goldenCompute() *Kernel {
	return &Kernel{
		Name: "golden_cs", Mode: Compute, Type: Float,
		NumInputs: 1, NumOutputs: 2,
		InputSpace: GlobalSpace, OutSpace: GlobalSpace,
		Code: []Instr{
			{Op: OpGlobalLoad, Dst: 0, SrcA: NoReg, SrcB: NoReg, Res: 0},
			{Op: OpMov, Dst: 1, SrcA: 0, SrcB: NoReg, Res: -1},
			{Op: OpGlobalStore, Dst: NoReg, SrcA: 0, SrcB: NoReg, Res: 0},
			{Op: OpGlobalStore, Dst: NoReg, SrcA: 1, SrcB: NoReg, Res: 1},
		},
	}
}

// TestAssembleGolden pins Assemble's output byte for byte. The strings
// below were produced by the original fmt.Fprintf-based assembler; the
// strconv.Append rewrite must reproduce them exactly, because compiled
// kernels and compile-cache keys historically content-addressed this text.
func TestAssembleGolden(t *testing.T) {
	const wantPixel = "il_ps_2_0 ; kernel golden_px\n" +
		"dcl_type float4\n" +
		"dcl_input_position_interp(linear_noperspective) vWinCoord0\n" +
		"dcl_resource_id(0)_type(2d)_fmt(float4)\n" +
		"dcl_resource_id(1)_type(2d)_fmt(float4)\n" +
		"dcl_output o0\n" +
		"dcl_cb cb0[3]\n" +
		"sample_resource(0) r0, vWinCoord0\n" +
		"sample_resource(1) r1, vWinCoord0\n" +
		"add r2, r0, r1\n" +
		"sub r3, r2, r0\n" +
		"mul r4, r3, r1\n" +
		"mov r5, r4\n" +
		"rcp r6, r5\n" +
		"rsq r7, r6\n" +
		"addc r8, r7, cb0[1]\n" +
		"mulc r9, r8, cb0[2]\n" +
		"export o0, r9\n" +
		"end\n"
	const wantCompute = "il_cs_2_0 ; kernel golden_cs\n" +
		"dcl_type float\n" +
		"dcl_thread_id vTid\n" +
		"dcl_raw_uav_id(0)_fmt(float) ; input buffer\n" +
		"dcl_raw_uav_id(1)_fmt(float) ; output buffer\n" +
		"dcl_raw_uav_id(2)_fmt(float) ; output buffer\n" +
		"gload_buffer(0) r0, vTid\n" +
		"mov r1, r0\n" +
		"gstore_buffer(0) r0, vTid\n" +
		"gstore_buffer(1) r1, vTid\n" +
		"end\n"

	if got := Assemble(goldenPixel()); got != wantPixel {
		t.Errorf("pixel kernel assembly changed:\ngot:\n%s\nwant:\n%s", got, wantPixel)
	}
	if got := Assemble(goldenCompute()); got != wantCompute {
		t.Errorf("compute kernel assembly changed:\ngot:\n%s\nwant:\n%s", got, wantCompute)
	}
}

// TestAppendAssembleMatchesAssemble proves the append core and the
// string-returning wrapper agree, including when appending after a prefix.
func TestAppendAssembleMatchesAssemble(t *testing.T) {
	k := goldenPixel()
	got := AppendAssemble([]byte("prefix|"), k)
	want := "prefix|" + Assemble(k)
	if string(got) != want {
		t.Errorf("AppendAssemble with prefix = %q, want %q", got, want)
	}
}

// TestHashMatchesEncoding pins Hash to the SHA-256 of AppendBinary.
func TestHashMatchesEncoding(t *testing.T) {
	for _, k := range []*Kernel{goldenPixel(), goldenCompute()} {
		want := sha256.Sum256(k.AppendBinary(nil))
		if got := k.Hash(); got != want {
			t.Errorf("kernel %q: Hash() != sha256(AppendBinary())", k.Name)
		}
	}
}

// TestBinaryDeterministic checks the canonical encoding depends on the
// kernel alone: a fresh buffer, a reused buffer that held another
// kernel's bytes (as Hash's pooled scratch does), an appended-to prefix
// and a deep copy of the kernel all yield the same bytes.
func TestBinaryDeterministic(t *testing.T) {
	k := chainKernel(4, 9, Pixel, Float, GlobalSpace, GlobalSpace)
	want := k.AppendBinary(nil)
	reused := chainKernel(7, 30, Compute, Float4, GlobalSpace, GlobalSpace).AppendBinary(nil)
	if got := k.AppendBinary(reused[:0]); !bytes.Equal(got, want) {
		t.Error("encoding into a reused buffer differs")
	}
	if got := k.AppendBinary([]byte("prefix")); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Error("encoding after a prefix differs")
	}
	cp := *k
	cp.Code = slices.Clone(k.Code)
	if got := cp.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Error("a deep copy encodes differently")
	}
}

// TestHashDistinguishesKernels checks the structural hash separates
// kernels that differ in exactly one field — the collision-safety property
// the compile cache's correctness rests on.
func TestHashDistinguishesKernels(t *testing.T) {
	base := goldenPixel()
	baseHash := base.Hash()

	mutations := map[string]func(*Kernel){
		"name":       func(k *Kernel) { k.Name = "other" },
		"mode":       func(k *Kernel) { k.Mode = Compute },
		"type":       func(k *Kernel) { k.Type = Float },
		"inputs":     func(k *Kernel) { k.NumInputs++ },
		"outputs":    func(k *Kernel) { k.NumOutputs++ },
		"inspace":    func(k *Kernel) { k.InputSpace = GlobalSpace },
		"outspace":   func(k *Kernel) { k.OutSpace = GlobalSpace },
		"consts":     func(k *Kernel) { k.NumConsts++ },
		"op":         func(k *Kernel) { k.Code[2].Op = OpMul },
		"dst":        func(k *Kernel) { k.Code[2].Dst = 11 },
		"srca":       func(k *Kernel) { k.Code[2].SrcA = 1 },
		"srcb":       func(k *Kernel) { k.Code[2].SrcB = 0 },
		"res":        func(k *Kernel) { k.Code[0].Res = 1 },
		"drop-instr": func(k *Kernel) { k.Code = k.Code[:len(k.Code)-1] },
	}
	for name, mutate := range mutations {
		k := goldenPixel()
		mutate(k)
		if k.Hash() == baseHash {
			t.Errorf("mutation %q did not change the structural hash", name)
		}
	}

	// Same structure must hash identically across fresh values.
	if goldenPixel().Hash() != baseHash {
		t.Error("identical kernels produced different hashes")
	}
}

// TestHashNameLengthPrefix guards the injectivity of the encoding at its
// only variable-width point: the name. Moving a byte between the name and
// the fields after it must change the hash.
func TestHashNameLengthPrefix(t *testing.T) {
	a := &Kernel{Name: "ab", NumOutputs: 1}
	b := &Kernel{Name: "a", NumOutputs: 1}
	if a.Hash() == b.Hash() {
		t.Error("length-prefixed names failed to separate encodings")
	}
}

// TestSealedComputesOnce: a sealed kernel answers Hash and Validate from
// its own memo after the first call. The test breaks the sealing
// contract on purpose — it mutates the kernel afterwards — to show the
// answers are not recomputed.
func TestSealedComputesOnce(t *testing.T) {
	k := goldenPixel()
	s := Seal(k)
	want := k.Hash()
	if s.Hash() != want || s.Validate() != nil {
		t.Fatalf("sealed hash/validate disagree with the kernel's: %v", s.Validate())
	}
	k.NumOutputs = 0
	if s.Hash() != want || s.Validate() != nil {
		t.Error("sealed kernel recomputed its hash or validation after the first call")
	}
	if k.Validate() == nil {
		t.Fatal("precondition broken: the mutated kernel still validates")
	}
}
