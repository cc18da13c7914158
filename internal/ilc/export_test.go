package ilc

import (
	"fmt"
	"slices"
	"sort"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

// referenceAllocateGPRs is the plain linear scan allocateGPRs replaced,
// kept as the differential oracle for its register numbering: it builds
// and sorts the same intervals, rescans the whole live list at every
// definition and reuses the smallest freed register by a linear search.
// It returns the high-water register count.
func referenceAllocateGPRs(k *il.Kernel, vals []value, first, last []int) int {
	lastFetch := -1
	for i, in := range k.Code {
		if in.Op.IsFetch() && last[i] > lastFetch {
			lastFetch = last[i]
		}
	}

	type interval struct {
		vi       int // value index, or -1 for the coordinate register
		def, end int
	}
	var ivs []interval
	ivs = append(ivs, interval{vi: -1, def: -1, end: lastFetch})
	for vi := range vals {
		v := &vals[vi]
		if v.def < 0 || !v.needGPR {
			continue
		}
		def := first[v.def]
		end := def
		for _, u := range v.uses {
			if last[u] > end {
				end = last[u]
			}
		}
		ivs = append(ivs, interval{vi: vi, def: def, end: end})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].def < ivs[b].def })
	type active struct {
		reg, end int
	}
	var live []active
	var free []int
	next := 0
	high := 0
	for _, iv := range ivs {
		for j := 0; j < len(live); {
			if live[j].end <= iv.def && !(live[j].end == -1 && iv.def == -1) {
				free = append(free, live[j].reg)
				live = append(live[:j], live[j+1:]...)
			} else {
				j++
			}
		}
		var reg int
		if len(free) > 0 {
			best := 0
			for j := 1; j < len(free); j++ {
				if free[j] < free[best] {
					best = j
				}
			}
			reg = free[best]
			free = append(free[:best], free[best+1:]...)
		} else {
			reg = next
			next++
		}
		live = append(live, active{reg, iv.end})
		if len(live)+len(free) > high {
			high = len(live) + len(free)
		}
		if iv.vi >= 0 {
			vals[iv.vi].loc = location{kind: locGPR, idx: reg, chn: 0, slot: vals[iv.vi].loc.slot}
		}
	}
	if next > high {
		high = next
	}
	return high
}

// CheckGPRsMatchReference runs CompileWith's passes up to register
// allocation on k, then allocates GPRs twice from the same state: with
// allocateGPRs and with referenceAllocateGPRs. It reports the first
// value placed differently, or a differing register count.
func CheckGPRsMatchReference(k *il.Kernel, spec device.Spec, opts Options) error {
	if err := check(k.Mode, k.Validate(), spec); err != nil {
		return err
	}
	s := new(scratch)
	vals := s.collectValues(k)
	clauses := s.formClauses(k, TargetOf(spec), vals)
	s.assignLocations(k, vals, clauses, opts)
	first, last := s.scheduleTimes(k, clauses)
	ref := slices.Clone(vals)
	got := s.allocateGPRs(k, vals, first, last)
	want := referenceAllocateGPRs(k, ref, first, last)
	for vi := range vals {
		if vals[vi].loc != ref[vi].loc {
			return fmt.Errorf("%s %+v: value %d at %+v, reference %+v", k.Name, opts, vi, vals[vi].loc, ref[vi].loc)
		}
	}
	if got != want {
		return fmt.Errorf("%s %+v: %d GPRs, reference %d", k.Name, opts, got, want)
	}
	return nil
}

// CompileFresh is CompileWith on a new scratch that no other compile has
// used or will use: the oracle for a compile on a reused scratch.
func CompileFresh(k *il.Kernel, spec device.Spec, opts Options) (*isa.Program, error) {
	if err := check(k.Mode, k.Validate(), spec); err != nil {
		return nil, err
	}
	return new(scratch).compile(k, TargetOf(spec), opts)
}
