package pipeline

import (
	"container/list"
	"sync"
	"time"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/obs"
)

// The replay stage's access stream is input-major: the trace for N
// inputs is a strict prefix of the trace for N+1 (see cache.Cursor). A
// dense input-count sweep — Fig. 11's 2..18 curve, Fig. 7 at each ratio
// — therefore re-replays almost the same stream at every point. The
// snapshot store exploits that: it keeps, per *prefix family* (a
// replayKey with the input count zeroed), the deepest replay cursor seen
// so far. A later point of the same family clones the snapshot and
// advances it by the delta instead of replaying from a cold cache.
//
// Memory bound: one entry is three cloned cache models — tag arrays for
// the L1, the shared L2 and the open-row tracker. The L2 dominates
// (e.g. RV770's 512KB/64B lines = 8192 tags x 8B = 64KB), so the
// default bound of 64 entries caps snapshot state at a few MB.
// Eviction is LRU over prefix families; within a family, put keeps
// whichever cursor is deeper, so the store never regresses a prefix.
//
// Counters live under pipeline.replay-prefix.* and surface in
// `-metrics`: hits (snapshot served), misses (cold family or snapshot
// deeper than the requested point), inputs_reused (inputs the snapshot
// saved replaying), inputs_replayed (inputs actually advanced).
type snapshotStore struct {
	max int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[replayKey]*list.Element

	hits         *obs.Counter
	misses       *obs.Counter
	coalesced    *obs.Counter // always 0: the outer replay store singleflights
	evictions    *obs.Counter
	computeNS    *obs.Counter
	entries      *obs.Gauge
	inputsReused *obs.Counter
	inputsPlayed *obs.Counter
}

type snapshotEntry struct {
	key replayKey
	cur *cache.Cursor
}

// prefixKeyFor strips the input count out of a replay key: what is left
// identifies the family of replays that share one stream prefix.
func prefixKeyFor(k replayKey) replayKey {
	k.numInputs = 0
	return k
}

func newSnapshotStore(reg *obs.Registry, max int) *snapshotStore {
	const prefix = "pipeline.replay-prefix."
	return &snapshotStore{
		max:          max,
		ll:           list.New(),
		items:        make(map[replayKey]*list.Element),
		hits:         reg.Counter(prefix + "hits"),
		misses:       reg.Counter(prefix + "misses"),
		coalesced:    reg.Counter(prefix + "coalesced"),
		evictions:    reg.Counter(prefix + "evictions"),
		computeNS:    reg.Counter(prefix + "compute_ns"),
		entries:      reg.Gauge(prefix + "entries"),
		inputsReused: reg.Counter(prefix + "inputs_reused"),
		inputsPlayed: reg.Counter(prefix + "inputs_replayed"),
	}
}

// lookup returns a private clone of the family's snapshot when it can
// seed a replay to n inputs (stored depth <= n; cursors cannot rewind),
// or nil on a cold family or an overdeep snapshot. The clone is the
// caller's to advance; the stored cursor is never handed out mutable.
func (s *snapshotStore) lookup(pk replayKey, n int) *cache.Cursor {
	s.mu.Lock()
	el, ok := s.items[pk]
	if ok {
		e := el.Value.(*snapshotEntry)
		if e.cur.Inputs() <= n {
			s.ll.MoveToFront(el)
			cur := e.cur.Clone()
			s.mu.Unlock()
			s.hits.Add(1)
			s.inputsReused.Add(int64(cur.Inputs()))
			return cur
		}
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return nil
}

// put offers an advanced cursor back to the store. The caller cedes
// ownership: the cursor must not be advanced after put (lookup clones
// it for every future caller). Within a family the deeper cursor wins;
// across families, LRU eviction keeps the store within its bound.
func (s *snapshotStore) put(pk replayKey, cur *cache.Cursor) {
	s.mu.Lock()
	if el, ok := s.items[pk]; ok {
		e := el.Value.(*snapshotEntry)
		if cur.Inputs() > e.cur.Inputs() {
			e.cur = cur
		}
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[pk] = s.ll.PushFront(&snapshotEntry{key: pk, cur: cur})
	evicted := 0
	for s.max > 0 && s.ll.Len() > s.max {
		back := s.ll.Back()
		e := back.Value.(*snapshotEntry)
		s.ll.Remove(back)
		delete(s.items, e.key)
		evicted++
	}
	s.entries.Set(int64(s.ll.Len()))
	s.mu.Unlock()
	if evicted > 0 {
		s.evictions.Add(int64(evicted))
	}
}

// replayIncremental computes one replay artifact, seeding from the
// family's prefix snapshot when one exists and banking the advanced
// cursor for the family's next point. With the pipeline disabled it
// degrades to the one-shot cache.Replay — `-no-cache` turns incremental
// replay off along with everything else, which is the lever the
// bit-identity tests pull.
func (p *Pipeline) replayIncremental(tc cache.TraceConfig) (cache.TraceStats, error) {
	if p.disabled {
		return cache.Replay(tc)
	}
	start := time.Now()
	pk := prefixKeyFor(replayKeyFor(tc))
	cur := p.snapshots.lookup(pk, tc.NumInputs)
	if cur == nil {
		var err error
		cur, err = cache.NewCursor(tc)
		if err != nil {
			return cache.TraceStats{}, err
		}
	}
	delta := tc.NumInputs - cur.Inputs()
	if err := cur.Advance(tc.NumInputs); err != nil {
		return cache.TraceStats{}, err
	}
	st := cur.Stats()
	p.snapshots.put(pk, cur)
	p.snapshots.inputsPlayed.Add(int64(delta))
	p.snapshots.computeNS.Add(time.Since(start).Nanoseconds())
	return st, nil
}
