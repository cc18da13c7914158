package pipeline

import (
	"container/list"
	"sync"
	"time"

	"amdgpubench/internal/obs"
)

// store is a bounded, content-addressed artifact store: an LRU map with
// singleflight deduplication. Concurrent gets of the same key share one
// computation — the worker pool behind a sweep never compiles or replays
// the same artifact twice at the same time — and completed artifacts are
// retained up to max entries, evicting least-recently-used first.
//
// Values must be immutable once stored: every hit returns the same
// artifact to every caller.
//
// Counters live in the pipeline's obs registry (resolved once at
// construction, updated with one atomic add per event — the same cost as
// the ad-hoc atomics they replaced), so `-metrics` and the progress
// reporter read one set of numbers.
type store[K comparable, V any] struct {
	max      int
	disabled bool
	// tierLoad/tierStore, when non-nil, attach a lower store level (the
	// persistent on-disk tier): a memory miss tries tierLoad before
	// computing, and a computed value writes through tierStore. Both run
	// outside mu, inside the singleflight window — concurrent gets of
	// one key do at most one tier lookup. A value served by tierLoad is
	// NOT written back through tierStore (it is already down there).
	tierLoad  func(K) (V, bool)
	tierStore func(K, V)

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[K]*list.Element
	inflight map[K]*call[V]

	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
	computeNS *obs.Counter
	entries   *obs.Gauge
	latency   *obs.Histogram
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newStore[K comparable, V any](stage string, reg *obs.Registry, max int, disabled bool) *store[K, V] {
	prefix := "pipeline." + stage + "."
	return &store[K, V]{
		max:       max,
		disabled:  disabled,
		ll:        list.New(),
		items:     make(map[K]*list.Element),
		inflight:  make(map[K]*call[V]),
		hits:      reg.Counter(prefix + "hits"),
		misses:    reg.Counter(prefix + "misses"),
		coalesced: reg.Counter(prefix + "coalesced"),
		evictions: reg.Counter(prefix + "evictions"),
		computeNS: reg.Counter(prefix + "compute_ns"),
		entries:   reg.Gauge(prefix + "entries"),
		latency:   reg.Histogram(prefix+"compute_latency_ns", obs.DefaultLatencyBuckets()),
	}
}

// observeCompute charges one miss's computation to the stage's counters.
func (s *store[K, V]) observeCompute(d time.Duration) {
	ns := d.Nanoseconds()
	s.computeNS.Add(ns)
	s.latency.Observe(ns)
}

// get returns the artifact for k, computing it at most once across
// concurrent callers. Errors are returned to every waiter but never
// cached: a failed computation retries on the next get.
func (s *store[K, V]) get(k K, compute func() (V, error)) (V, error) {
	return s.getTimed(k, func() (V, time.Duration, error) {
		start := time.Now()
		v, err := compute()
		return v, time.Since(start), err
	})
}

// getTimed is get for a compute that reports the time to charge to the
// stage itself. The Simulate stage needs it: its miss path also runs the
// trace and replay stages, which charge their own counters, so only the
// simulator's share may land on pipeline.simulate.compute_ns.
func (s *store[K, V]) getTimed(k K, compute func() (V, time.Duration, error)) (V, error) {
	if s.disabled {
		v, d, err := compute()
		s.observeCompute(d)
		s.misses.Add(1)
		return v, err
	}

	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		s.mu.Unlock()
		s.hits.Add(1)
		return v, nil
	}
	if c, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		<-c.done
		s.coalesced.Add(1)
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	s.inflight[k] = c
	s.mu.Unlock()

	fromTier := false
	if s.tierLoad != nil {
		c.val, fromTier = s.tierLoad(k)
	}
	if !fromTier {
		var d time.Duration
		c.val, d, c.err = compute()
		s.observeCompute(d)
		if c.err == nil && s.tierStore != nil {
			s.tierStore(k, c.val)
		}
	}
	s.misses.Add(1)

	s.mu.Lock()
	delete(s.inflight, k)
	if c.err == nil {
		s.items[k] = s.ll.PushFront(&entry[K, V]{key: k, val: c.val})
		for s.max > 0 && s.ll.Len() > s.max {
			back := s.ll.Back()
			e := back.Value.(*entry[K, V])
			s.ll.Remove(back)
			delete(s.items, e.key)
			s.evictions.Add(1)
		}
		s.entries.Set(int64(s.ll.Len()))
	}
	s.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// len returns the number of resident artifacts.
func (s *store[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
