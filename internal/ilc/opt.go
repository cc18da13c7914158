package ilc

// Dead-code elimination. Section III of the paper works around exactly
// this behaviour of the CAL compiler: "A kernel has to have an output to
// be valid, otherwise the compiler optimizes the kernel for no output.
// Every input that is declared and sampled has to be used, otherwise the
// compiler optimizes the input out of the code." Optimize reproduces that
// cleanup: ALU operations whose results never reach a store are deleted,
// fetches of unused values are deleted, and input resources that are no
// longer sampled are removed from the kernel's declaration (with resource
// indices renumbered). The micro-benchmark generators construct kernels
// that are entirely live, which the suite's tests assert — it is how the
// paper guarantees its instruction counts survive compilation.

import (
	"fmt"

	"amdgpubench/internal/il"
)

// OptReport describes what Optimize removed.
type OptReport struct {
	RemovedOps    int   // dead ALU and fetch instructions deleted
	RemovedInputs []int // original input resource indices eliminated
	// InputMap maps each surviving input's new resource index to its
	// original index (InputMap[new] == original). A nil map means the
	// identity: no renumbering happened. Differential checks need this to
	// feed the optimized kernel the same data the original read.
	InputMap []int
}

// Optimize returns a dead-code-eliminated copy of the kernel and a report
// of what was removed. The input kernel is not modified. A kernel with no
// stores is rejected, mirroring the hardware compiler's refusal to keep
// output-less kernels.
func Optimize(k *il.Kernel) (*il.Kernel, OptReport, error) {
	var rep OptReport
	hasStore := false
	for _, in := range k.Code {
		if in.Op.IsStore() {
			hasStore = true
			break
		}
	}
	if !hasStore {
		return nil, rep, fmt.Errorf("ilc: kernel %q has no output; the compiler would optimize it away entirely", k.Name)
	}

	// Backward liveness over the SSA temps.
	defOf := make(map[il.Reg]int)
	for i, in := range k.Code {
		if in.Dst != il.NoReg {
			defOf[in.Dst] = i
		}
	}
	liveInstr := make([]bool, len(k.Code))
	var markValue func(r il.Reg)
	markInstr := func(i int) {
		if liveInstr[i] {
			return
		}
		liveInstr[i] = true
		in := k.Code[i]
		for _, s := range []il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				markValue(s)
			}
		}
	}
	markValue = func(r il.Reg) {
		if d, ok := defOf[r]; ok && !liveInstr[d] {
			markInstr(d)
		}
	}
	for i, in := range k.Code {
		if in.Op.IsStore() {
			markInstr(i)
		}
	}

	// Fully-live kernel: return an unmodified copy, preserving the
	// original register numbering (the generators rely on this).
	allLive := true
	for _, l := range liveInstr {
		if !l {
			allLive = false
			break
		}
	}
	if allLive {
		out := *k
		out.Code = append([]il.Instr(nil), k.Code...)
		return &out, rep, nil
	}

	// Rebuild the code with dead instructions dropped, temps renumbered
	// densely and surviving input resources renumbered.
	out := &il.Kernel{
		Name: k.Name, Mode: k.Mode, Type: k.Type,
		NumOutputs: k.NumOutputs, NumConsts: k.NumConsts,
		InputSpace: k.InputSpace, OutSpace: k.OutSpace,
	}
	regMap := make(map[il.Reg]il.Reg)
	nextReg := il.Reg(0)
	mapReg := func(r il.Reg) il.Reg {
		if r == il.NoReg {
			return il.NoReg
		}
		if nr, ok := regMap[r]; ok {
			return nr
		}
		nr := nextReg
		regMap[r] = nr
		nextReg++
		return nr
	}
	resMap := make(map[int]int)
	usedInputs := make([]bool, k.NumInputs)
	for i, in := range k.Code {
		if !liveInstr[i] {
			rep.RemovedOps++
			continue
		}
		ni := in
		if in.Op.IsFetch() {
			usedInputs[in.Res] = true
			if nr, ok := resMap[in.Res]; ok {
				ni.Res = nr
			} else {
				nr := len(resMap)
				resMap[in.Res] = nr
				ni.Res = nr
			}
		}
		if in.Dst != il.NoReg {
			ni.Dst = mapReg(in.Dst)
		}
		ni.SrcA = mapReg(in.SrcA)
		ni.SrcB = mapReg(in.SrcB)
		out.Code = append(out.Code, ni)
	}
	out.NumInputs = len(resMap)
	rep.InputMap = make([]int, len(resMap))
	for orig, nr := range resMap {
		rep.InputMap[nr] = orig
	}
	for res, used := range usedInputs {
		if !used && res < k.NumInputs {
			rep.RemovedInputs = append(rep.RemovedInputs, res)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, rep, fmt.Errorf("ilc: internal error: optimized kernel invalid: %w", err)
	}
	return out, rep, nil
}
