package main

import (
	"sort"

	"amdgpubench/internal/obs"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks. xs need not be sorted; an empty slice
// gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so the spread this tool prints is the one the benchmark is judged by.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// counters is a ledger of monotonically increasing totals: the
// program's obs counters, histogram observation counts (as
// "<name>.count"), kernel launches and the benchmark's own phase timers.
type counters map[string]int64

// addSnapshot folds a registry snapshot into the ledger. Gauges are
// levels, not totals, so they are left out.
func (c counters) addSnapshot(s obs.Snapshot) {
	for _, v := range s.Counters {
		c[v.Name] += v.Value
	}
	for _, h := range s.Histograms {
		c[h.Name+".count"] += h.Count
	}
}

// sub returns c - base, key by key.
func (c counters) sub(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count   int
	TotalUS float64
	SelfUS  float64
}

// spanTable maps span name to its aggregate.
type spanTable map[string]spanStat

func (t spanTable) add(o spanTable) {
	for name, s := range o {
		a := t[name]
		a.Count += s.Count
		a.TotalUS += s.TotalUS
		a.SelfUS += s.SelfUS
		t[name] = a
	}
}

// sub returns t - base, name by name.
func (t spanTable) sub(base spanTable) spanTable {
	d := make(spanTable, len(t))
	for name, s := range t {
		b := base[name]
		d[name] = spanStat{Count: s.Count - b.Count, TotalUS: s.TotalUS - b.TotalUS, SelfUS: s.SelfUS - b.SelfUS}
	}
	return d
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children: the spans on its track
// that its interval contains. Tracks are the tracer's lanes, so spans on
// other tracks (a concurrent launch, a campaign unit span) never count
// as children.
func selfTimes(spans []obs.SpanInfo) spanTable {
	byTrack := make(map[int][]obs.SpanInfo)
	for _, s := range spans {
		byTrack[s.TID] = append(byTrack[s.TID], s)
	}
	t := make(spanTable)
	for _, track := range byTrack {
		// Parents sort before the children they contain: earlier start
		// first, and on a tied start the longer span first.
		sort.Slice(track, func(i, j int) bool {
			if track[i].StartUS != track[j].StartUS {
				return track[i].StartUS < track[j].StartUS
			}
			return track[i].DurUS > track[j].DurUS
		})
		self := make([]float64, len(track))
		var stack []int
		for i, s := range track {
			self[i] = s.DurUS
			end := s.StartUS + s.DurUS
			for len(stack) > 0 {
				p := track[stack[len(stack)-1]]
				if s.StartUS < p.StartUS+p.DurUS && end <= p.StartUS+p.DurUS {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= s.DurUS
			}
			stack = append(stack, i)
		}
		for i, s := range track {
			a := t[s.Name]
			a.Count++
			a.TotalUS += s.DurUS
			a.SelfUS += self[i]
			t[s.Name] = a
		}
	}
	return t
}
