// Package fault is the fault-injection layer of the reproduction. Real
// StreamSDK measurement campaigns — thousands of unattended kernel
// launches per figure — routinely hit hung kernels, driver watchdog
// resets and flaky launches. The simulator is too polite to exhibit any
// of these, so this package injects them on purpose: a Plan describes
// which failure modes strike which kernels with what probability, and
// every draw is a pure function of the plan's seed and the launch's
// identity, so an injected fault reproduces bit-identically across
// re-runs, worker counts and retry schedules.
//
// The supported faults mirror the failure modes the suite's execution
// layer must survive:
//
//	hang       — a clause never retires; caught by the sim watchdog
//	transient  — the launch fails with a retryable error
//	throttle   — the core clock is reduced for the launch (thermal event)
//	corrupt    — cached fetches return perturbed data (functional runs)
//	drop       — exports are silently dropped (functional runs)
//	devicelost — the device falls off the bus; fatal for the sweep
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind is one injectable failure mode.
type Kind int

const (
	// Hang makes a clause never retire; the sim watchdog must catch it.
	Hang Kind = iota
	// Transient fails the launch with a retryable error before any work.
	Transient
	// Throttle reduces the effective core clock for the launch.
	Throttle
	// Corrupt perturbs the values cached fetches return (functional runs).
	Corrupt
	// Drop silently discards exports (functional runs).
	Drop
	// DeviceLost fails the launch fatally: the device is gone.
	DeviceLost
)

var kindNames = map[Kind]string{
	Hang:       "hang",
	Transient:  "transient",
	Throttle:   "throttle",
	Corrupt:    "corrupt",
	Drop:       "drop",
	DeviceLost: "devicelost",
}

// String names the kind the way Parse spells it.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Spec arms one failure mode.
type Spec struct {
	Kind Kind
	// Prob is the per-launch probability in [0,1].
	Prob float64
	// Match, when non-empty, restricts the fault to launches whose kernel
	// name contains it as a substring (e.g. "alufetch_r0.25").
	Match string
	// Clause is the clause a Hang sticks in; negative means the last.
	Clause int
	// Factor is the Throttle clock multiplier in (0,1].
	Factor float64
}

// Plan is a seeded set of armed faults.
type Plan struct {
	Seed  uint64
	Specs []Spec
}

// Injection is the set of faults striking one launch.
type Injection struct {
	// Hang, when true, sticks HangClause forever.
	Hang       bool
	HangClause int
	// Transient fails the launch retryably.
	Transient bool
	// Throttle is the effective clock multiplier; 0 means nominal.
	Throttle float64
	// Corrupt perturbs fetch returns in functional execution.
	Corrupt bool
	// Drop discards exports in functional execution.
	Drop bool
	// DeviceLost fails the launch fatally.
	DeviceLost bool
}

// Any reports whether any fault struck.
func (i Injection) Any() bool {
	return i.Hang || i.Transient || i.Throttle != 0 || i.Corrupt || i.Drop || i.DeviceLost
}

// String lists the active faults, for diagnostics.
func (i Injection) String() string {
	var parts []string
	if i.Hang {
		parts = append(parts, fmt.Sprintf("hang(clause=%d)", i.HangClause))
	}
	if i.Transient {
		parts = append(parts, "transient")
	}
	if i.Throttle != 0 {
		parts = append(parts, fmt.Sprintf("throttle(%.2f)", i.Throttle))
	}
	if i.Corrupt {
		parts = append(parts, "corrupt")
	}
	if i.Drop {
		parts = append(parts, "drop")
	}
	if i.DeviceLost {
		parts = append(parts, "devicelost")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Key condenses a launch's identity — kernel name, device, domain and
// retry attempt — into the 64-bit value Draw hashes against the seed.
// Keying on identity rather than a launch counter keeps injections
// reproducible under any worker count and sweep order; mixing in the
// attempt lets a transient fault clear on retry.
func Key(kernel, arch string, w, h, attempt int) uint64 {
	return fnv64(fmt.Sprintf("%s|%s|%dx%d|a%d", kernel, arch, w, h, attempt))
}

// fnv64 is FNV-1a: stable across builds and platforms, so a launch key
// (hence every fault draw) reproduces on any rerun.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 finalizes a draw: a full-avalanche mix so per-spec salts
// decorrelate the uniform variates of one launch.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// uniform maps a mixed word to [0,1).
func uniform(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Draw decides which armed faults strike the launch identified by
// (kernel, key). It is a pure function: the same plan, kernel name and
// key always produce the same injection. A nil plan never injects.
func (p *Plan) Draw(kernel string, key uint64) Injection {
	var inj Injection
	if p == nil {
		return inj
	}
	for i, s := range p.Specs {
		if s.Prob <= 0 {
			continue
		}
		if s.Match != "" && !strings.Contains(kernel, s.Match) {
			continue
		}
		u := uniform(splitmix64(p.Seed ^ key ^ uint64(i)*0xA24BAED4963EE407))
		if u >= s.Prob {
			continue
		}
		switch s.Kind {
		case Hang:
			inj.Hang = true
			inj.HangClause = s.Clause
		case Transient:
			inj.Transient = true
		case Throttle:
			f := s.Factor
			if f <= 0 || f > 1 {
				f = 0.5
			}
			inj.Throttle = f
		case Corrupt:
			inj.Corrupt = true
		case Drop:
			inj.Drop = true
		case DeviceLost:
			inj.DeviceLost = true
		}
	}
	return inj
}

// Parse reads the CLI plan syntax: semicolon-separated clauses, the
// optional first being "seed=N", each other being
// "<kind>[:key=value[,key=value...]]". Keys: prob (default 1),
// match, clause (hang), factor (throttle). Examples:
//
//	hang
//	seed=42;hang:prob=0.01;transient:prob=0.05
//	hang:prob=1,match=alufetch_r0.25,clause=2;throttle:prob=0.1,factor=0.5
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		name, opts, _ := strings.Cut(clause, ":")
		var kind Kind
		found := false
		for k, n := range kindNames {
			if n == name {
				kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown fault kind %q (want %s)", name, kindList())
		}
		spec := Spec{Kind: kind, Prob: 1, Clause: -1}
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("fault: bad option %q in %q", kv, clause)
				}
				switch key {
				case "prob":
					f, err := strconv.ParseFloat(val, 64)
					if err != nil || math.IsNaN(f) || f < 0 || f > 1 {
						return nil, fmt.Errorf("fault: bad prob %q in %q (want 0..1)", val, clause)
					}
					spec.Prob = f
				case "match":
					spec.Match = val
				case "clause":
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("fault: bad clause %q", val)
					}
					spec.Clause = n
				case "factor":
					f, err := strconv.ParseFloat(val, 64)
					if err != nil || f <= 0 || f > 1 {
						return nil, fmt.Errorf("fault: bad factor %q (want (0,1])", val)
					}
					spec.Factor = f
				default:
					return nil, fmt.Errorf("fault: unknown option %q in %q", key, clause)
				}
			}
		}
		// Two specs of the same kind scoped to the same kernels would draw
		// twice for one failure mode — almost always a typo'd plan whose
		// effective probability silently differs from what was written.
		for _, prev := range p.Specs {
			if prev.Kind == spec.Kind && prev.Match == spec.Match {
				return nil, fmt.Errorf("fault: duplicate %s fault for match %q (clause %q)",
					spec.Kind, spec.Match, clause)
			}
		}
		p.Specs = append(p.Specs, spec)
	}
	if len(p.Specs) == 0 {
		return nil, fmt.Errorf("fault: empty plan %q", s)
	}
	return p, nil
}

// String renders the plan back in Parse's syntax.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, s := range p.Specs {
		var opts []string
		if s.Prob != 1 {
			opts = append(opts, fmt.Sprintf("prob=%g", s.Prob))
		}
		if s.Match != "" {
			opts = append(opts, "match="+s.Match)
		}
		if s.Kind == Hang && s.Clause >= 0 {
			opts = append(opts, fmt.Sprintf("clause=%d", s.Clause))
		}
		if s.Kind == Throttle && s.Factor != 0 {
			opts = append(opts, fmt.Sprintf("factor=%g", s.Factor))
		}
		c := s.Kind.String()
		if len(opts) > 0 {
			c += ":" + strings.Join(opts, ",")
		}
		parts = append(parts, c)
	}
	return strings.Join(parts, ";")
}

func kindList() string {
	names := make([]string, 0, len(kindNames))
	for _, n := range kindNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// CorruptValue is the deterministic perturbation Corrupt applies to a
// fetched value: the sign bit flips on a thread-dependent subset of
// lanes, a visible, reproducible corruption rather than random noise.
func CorruptValue(v float32, x, y, lane int) float32 {
	if (x+y+lane)%3 == 0 {
		return -v
	}
	return v
}
