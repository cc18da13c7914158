package ilc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/conformance"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
)

// TestScratchIsolation checks that a compile on a reused scratch cannot
// see what an earlier compile left in it. Every distinct registry kernel
// under all four ablations, plus generated conformance kernels, compiles
// from several goroutines in shuffled order, so most compiles run on a
// scratch that a kernel of another size filled. Each program must equal,
// field for field (so in its disassembly and GPR count too), the one a
// compile on a fresh scratch that no other compile touches returns.
func TestScratchIsolation(t *testing.T) {
	type job struct {
		k    *il.Kernel
		spec device.Spec
		opts ilc.Options
	}
	var jobs []job
	specs, err := campaign.Specs(core.NewSuite(), campaign.FigureNames())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]bool{}
	for _, s := range specs {
		for _, p := range s.Figure.Points {
			k, err := p.K.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			if seen[k.Hash()] {
				continue
			}
			seen[k.Hash()] = true
			for _, opts := range ablations {
				jobs = append(jobs, job{k, device.Lookup(p.Card.Arch), opts})
			}
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		k := conformance.RandomKernel(rand.New(rand.NewSource(seed)))
		jobs = append(jobs, job{k, conformance.SpecFor(k, uint8(seed)), ablations[seed%4]})
	}

	type result struct {
		prog *isa.Program
		err  error
	}
	const workers = 4
	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				prog, err := ilc.CompileWith(j.k, j.spec, j.opts)
				fresh, ferr := ilc.CompileFresh(j.k, j.spec, j.opts)
				if !reflect.DeepEqual(result{prog, err}, result{fresh, ferr}) {
					t.Errorf("%s on %v %+v: a reused scratch compiles it differently from a fresh one:\n%s\nfresh:\n%s",
						j.k.Name, j.spec.Arch, j.opts, listing(prog, err), listing(fresh, ferr))
				}
			}
		}()
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(jobs)) {
		next <- jobs[i]
	}
	close(next)
	wg.Wait()
	t.Logf("%d compiles", len(jobs))
}

// listing is a compile result as the disassembler prints it.
func listing(prog *isa.Program, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d GPRs\n%s", prog.GPRCount, isa.Disassemble(prog))
}
