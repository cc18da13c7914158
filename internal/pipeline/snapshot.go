package pipeline

import (
	"sync"
	"time"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/obs"
)

// The replay stage's access stream is input-major: the trace for N
// inputs is a strict prefix of the trace for N+1 (see cache.Cursor). A
// dense input-count sweep — Fig. 11's fetch-latency curve, Fig. 7 at
// each ALU:Fetch ratio — therefore re-replays almost the same stream at
// every point. The pipeline exploits that: per *prefix family* (a
// replayKey with the input count zeroed) it keeps the deepest replay
// cursor seen so far, and a later point of the same family clones it and
// advances the clone by the delta instead of replaying from a cold cache.
//
// The families live in one more generic store (stage "replay-family"),
// whose LRU bounds them to defaultReplaySnapshotEntries and whose
// entries/evictions counters report residency. Each family is a
// prefixSlot. Its cursor holds three cache models' tag arrays, of which
// the L2's dominate: 2048 or 4096 tags x 8B = 16KB on RV670 and 32KB on
// RV770 and RV870. The line-run table adds up to 16KB at 32 resident
// waves, so 64 families stay within a few MB.
//
// The pipeline.replay-prefix.* counters count replays, not families:
// hits (replays resumed from a banked cursor), misses (replays started
// at input 0), inputs_reused (inputs a banked cursor saved replaying),
// inputs_replayed (inputs actually advanced) and compute_ns.
type prefixSlot struct {
	mu  sync.Mutex
	cur *cache.Cursor // the family's deepest cursor; only ever cloned
}

func newPrefixSlot() (*prefixSlot, error) { return new(prefixSlot), nil }

// resume returns a private clone of the family's cursor when it can seed
// a replay to n inputs (banked depth <= n; cursors cannot rewind), or nil.
func (s *prefixSlot) resume(n int) *cache.Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil || s.cur.Inputs() > n {
		return nil
	}
	return s.cur.Clone()
}

// bank offers an advanced cursor to the family; the deeper cursor wins,
// so the family never regresses. The caller cedes the cursor: it must
// not be advanced after bank.
func (s *prefixSlot) bank(cur *cache.Cursor) {
	s.mu.Lock()
	if s.cur == nil || cur.Inputs() > s.cur.Inputs() {
		s.cur = cur
	}
	s.mu.Unlock()
}

// prefixKeyFor strips the input count out of a replay key: what is left
// identifies the family of replays that share one stream prefix.
func prefixKeyFor(k replayKey) replayKey {
	k.numInputs = 0
	return k
}

type prefixCounters struct {
	hits, misses, inputsReused, inputsReplayed, computeNS *obs.Counter
}

func newPrefixCounters(reg *obs.Registry) prefixCounters {
	const prefix = "pipeline.replay-prefix."
	return prefixCounters{
		hits:           reg.Counter(prefix + "hits"),
		misses:         reg.Counter(prefix + "misses"),
		inputsReused:   reg.Counter(prefix + "inputs_reused"),
		inputsReplayed: reg.Counter(prefix + "inputs_replayed"),
		computeNS:      reg.Counter(prefix + "compute_ns"),
	}
}

// replayIncremental computes one replay artifact, seeding from the
// family's deepest cursor when one exists and banking the advanced
// cursor for the family's next point. With the pipeline disabled it
// degrades to the one-shot cache.Replay — `-no-cache` turns incremental
// replay off along with everything else, which is the lever the
// bit-identity tests pull.
func (p *Pipeline) replayIncremental(tc cache.TraceConfig) (cache.TraceStats, error) {
	if p.disabled {
		return cache.Replay(tc)
	}
	start := time.Now()
	slot, _ := p.snapshots.get(prefixKeyFor(replayKeyFor(tc)), newPrefixSlot)
	cur := slot.resume(tc.NumInputs)
	if cur != nil {
		p.prefix.hits.Add(1)
		p.prefix.inputsReused.Add(int64(cur.Inputs()))
	} else {
		p.prefix.misses.Add(1)
		var err error
		if cur, err = cache.NewCursor(tc); err != nil {
			return cache.TraceStats{}, err
		}
	}
	delta := tc.NumInputs - cur.Inputs()
	if err := cur.Advance(tc.NumInputs); err != nil {
		return cache.TraceStats{}, err
	}
	st := cur.Stats()
	slot.bank(cur)
	p.prefix.inputsReplayed.Add(int64(delta))
	p.prefix.computeNS.Add(time.Since(start).Nanoseconds())
	return st, nil
}
