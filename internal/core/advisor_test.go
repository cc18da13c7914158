package core

import (
	"strings"
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/kerngen"
)

func adviceTexts(advs []Advice) string {
	var b strings.Builder
	for _, a := range advs {
		b.WriteString(a.Suggestion)
		b.WriteString("\n")
	}
	return b.String()
}

func TestAdviseFetchBound(t *testing.T) {
	r := Run{
		Card:       Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float},
		Bottleneck: "fetch", HitRate: 0.85, Waves: 4, GPRs: 64,
	}
	text := adviceTexts(Advise(r))
	for _, want := range []string{
		"ALU operations per fetch",
		"64x1 block",
		"cache hit rate",
		"register usage",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fetch-bound advice missing %q:\n%s", want, text)
		}
	}
}

func TestAdviseFetchBoundPixelSkipsBlockAdvice(t *testing.T) {
	r := Run{
		Card:       Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float},
		Bottleneck: "fetch", HitRate: 0.95, Waves: 20, GPRs: 10,
	}
	text := adviceTexts(Advise(r))
	if strings.Contains(text, "64x1 block") {
		t.Errorf("pixel-mode run got compute block advice:\n%s", text)
	}
	if strings.Contains(text, "register usage") {
		t.Errorf("high-occupancy run got register advice:\n%s", text)
	}
}

func TestAdviseALUBound(t *testing.T) {
	r := Run{
		Card:       Card{Arch: device.RV870, Mode: il.Pixel, Type: il.Float4},
		Bottleneck: "ALU", HitRate: 0.95, Waves: 25, GPRs: 5,
	}
	text := adviceTexts(Advise(r))
	if !strings.Contains(text, "merge") {
		t.Errorf("ALU-bound advice missing merging suggestion:\n%s", text)
	}
	if !strings.Contains(text, "registers") {
		t.Errorf("ALU-bound healthy-cache advice missing register-spend suggestion:\n%s", text)
	}
}

func TestAdviseMemoryBound(t *testing.T) {
	r := Run{
		Card:       Card{Arch: device.RV770, Mode: il.Compute, Type: il.Float4},
		Bottleneck: "memory",
	}
	text := adviceTexts(Advise(r))
	if !strings.Contains(text, "free until the bound flips") {
		t.Errorf("memory-bound advice missing headroom suggestion:\n%s", text)
	}
	if !strings.Contains(text, "consecutive addresses") {
		t.Errorf("memory-bound advice missing burst suggestion:\n%s", text)
	}
}

func TestAdviseUnknownBottleneck(t *testing.T) {
	if got := Advise(Run{Bottleneck: "?"}); len(got) != 0 {
		t.Fatalf("unknown bottleneck produced advice: %v", got)
	}
	if !strings.Contains(AdviseString(Run{Bottleneck: "?"}), "no advice") {
		t.Fatal("AdviseString should say no advice")
	}
}

// TestAdviseEndToEnd drives the advisor from real suite runs: the matmul
// shape must be diagnosed fetch bound with the ALU:Fetch prescription and
// the write-heavy shape memory bound with the headroom prescription.
func TestAdviseEndToEnd(t *testing.T) {
	s := suite()
	card := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}
	k, err := kerngen.ALUFetch(kerngen.Params{
		Mode: il.Pixel, Type: il.Float, Inputs: 16, Outputs: 1, ALUFetchRatio: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.runKernelSafe(KernelPoint{Card: card, K: il.Seal(k), W: 1024, H: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := AdviseString(run)
	if !strings.Contains(out, "fetch bound") || !strings.Contains(out, "ALU operations per fetch") {
		t.Errorf("end-to-end fetch diagnosis wrong:\n%s", out)
	}

	wk, err := kerngen.WriteLatency(kerngen.Params{
		Mode: il.Pixel, Type: il.Float4, Inputs: 2, Outputs: 8, OutSpace: il.GlobalSpace,
	})
	if err != nil {
		t.Fatal(err)
	}
	wcard := Card{Arch: device.RV770, Mode: il.Pixel, Type: il.Float4}
	wrun, err := s.runKernelSafe(KernelPoint{Card: wcard, K: il.Seal(wk), W: 1024, H: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wout := AdviseString(wrun)
	if !strings.Contains(wout, "memory bound") {
		t.Errorf("end-to-end memory diagnosis wrong:\n%s", wout)
	}
}
