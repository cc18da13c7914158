package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"sync"

	"amdgpubench/internal/fsatomic"
	"amdgpubench/internal/obs"
)

// Sweep checkpointing: RunKernelPoints records every completed point into a
// JSON file as it finishes, so a campaign killed mid-sweep (the paper's
// figures are thousands of launches) resumes from the last completed
// point instead of starting over. The file is bound to its sweep by a
// signature over every point's identity and the iteration count: a
// checkpoint from a different figure, card set or configuration is
// ignored rather than resumed into bogus results.

// checkpointFile is the on-disk format.
type checkpointFile struct {
	Signature string         `json:"signature"`
	Runs      map[string]Run `json:"runs"`
}

// checkpoint is the live handle: a restored map plus incremental saves.
// Saves are batched: put marks the map dirty and rewrites the file only
// every flushEvery completions; the sweep runner flushes on every exit
// path (normal, fatal, interrupt), so at rest the file always holds the
// full completed set. A SIGKILL between flushes loses at most
// flushEvery-1 most-recent points — they recompute on resume, which is
// the same contract a kill during a point already had — while a
// back-to-back daemon campaign stops paying a full-file fsync per point
// (O(n²) bytes per sweep becomes O(n²/k)).
type checkpoint struct {
	path string
	sig  string

	mu    sync.Mutex
	runs  map[int]Run
	dirty int // puts since the last flush
	every int // flush cadence; put flushes when dirty reaches it
}

// defaultFlushEvery balances durability against save cost: at the
// suite's sweep sizes a batch of 8 keeps the crash-replay window under a
// second of work while cutting full-file rewrites by ~8x.
const defaultFlushEvery = 8

// sweepSignature fingerprints a sweep: the kernel identity, card, x and
// domain of every point, plus the iteration count. Kernel identity is
// the structural hash of the IL (il.Kernel.Hash), not the kernel name:
// two generator versions can emit different bodies under the same name,
// and resuming the new sweep from the old sweep's checkpoint would
// silently splice stale timings into the figure.
func sweepSignature(pts []KernelPoint, iterations int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "iters=%d;n=%d;", iterations, len(pts))
	for _, p := range pts {
		var kid string
		if p.K != nil {
			sum := p.K.Hash()
			kid = fmt.Sprintf("%x", sum[:8])
		}
		fmt.Fprintf(h, "%s|%s|%g|%dx%d;", p.Card.Label(), kid, p.X, p.W, p.H)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openCheckpoint loads the file if it exists and matches the signature.
// A missing file or a signature mismatch starts an empty checkpoint. A
// corrupt file — a torn write from a kill mid-save on a filesystem
// without atomic rename, or outside interference — is quarantined:
// renamed to <path>.corrupt (preserved for diagnosis), counted on the
// quarantined counter, and the sweep starts fresh. Recomputing a
// half-finished campaign is the deterministic, safe outcome; wedging
// every subsequent resume on one torn write is not.
// flushEvery <= 0 selects the default save cadence; 1 restores the old
// save-per-point behavior.
func openCheckpoint(path, sig string, flushEvery int, quarantined *obs.Counter) (*checkpoint, error) {
	if flushEvery <= 0 {
		flushEvery = defaultFlushEvery
	}
	ck := &checkpoint{path: path, sig: sig, runs: map[int]Run{}, every: flushEvery}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			return nil, fmt.Errorf("core: checkpoint %s is corrupt (%v) and could not be quarantined: %w", path, err, rerr)
		}
		quarantined.Inc()
		return ck, nil
	}
	if f.Signature != sig {
		return ck, nil
	}
	for key, r := range f.Runs {
		i, err := strconv.Atoi(key)
		if err != nil || i < 0 || r.Failed() {
			// Failure records are not restored: a resumed sweep gets a
			// fresh chance at previously failed points.
			continue
		}
		ck.runs[i] = r
	}
	return ck, nil
}

// get returns the restored run for point i, if any.
func (c *checkpoint) get(i int) (Run, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[i]
	return r, ok
}

// put records a completed point and, every flushEvery-th completion,
// rewrites the file crash-atomically (see flushLocked). The batching
// matters for a daemon running campaigns back-to-back: saving per point
// rewrites and fsyncs the whole accumulated file each time — O(n²)
// bytes per sweep — and the fsyncs serialize the worker pool behind the
// checkpoint mutex.
func (c *checkpoint) put(i int, r Run) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs[i] = r
	c.dirty++
	if c.dirty < c.every {
		return nil
	}
	return c.flushLocked()
}

// flush writes any unsaved completions to disk. The sweep runner calls
// it after the workers drain on every exit path, so a sweep that
// returns — normally, fatally, or interrupted — always leaves its full
// completed set on disk; only a kill can lose the tail of a batch.
func (c *checkpoint) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked rewrites the file crash-atomically: the new contents are
// written to a unique temp file, fsynced, and renamed over the old
// checkpoint, so a SIGKILL at any instant leaves either the old complete
// file or the new complete file — never a torn mix (the crash-torture
// harness in internal/soak exercises exactly this).
func (c *checkpoint) flushLocked() error {
	if c.dirty == 0 {
		return nil
	}
	f := checkpointFile{Signature: c.sig, Runs: make(map[string]Run, len(c.runs))}
	for k, v := range c.runs {
		f.Runs[strconv.Itoa(k)] = v
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := fsatomic.WriteFile(c.path, data); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	c.dirty = 0
	return nil
}

// MergeCheckpoints unions the completed runs of every src checkpoint —
// the per-shard files a sharded campaign writes — into dst, which an
// unsharded run of the same campaign then resumes from. Every source
// must parse and carry the same signature (each shard fingerprints the
// FULL point list, so a mismatch means the files belong to different
// campaigns — that is an error, not something to paper over). An
// existing dst with the matching signature contributes its runs too,
// but only for keys no shard recorded: the shard files are the fresh
// output of the campaign being merged, while dst is whatever an earlier
// run left behind — when both hold a run for the same key, the shard's
// must win. (The absorb order below encodes this: sources first, each
// key claimed once, dst last.) A dst from some other campaign is ignored
// and overwritten. Failure records are dropped, matching restore
// semantics: a merged resume gets a fresh chance at failed points.
// Returns the number of distinct completed runs written. The write is
// crash-atomic.
func MergeCheckpoints(dst string, srcs ...string) (int, error) {
	if len(srcs) == 0 {
		return 0, fmt.Errorf("core: merge: no source checkpoints")
	}
	merged := checkpointFile{Runs: map[string]Run{}}
	// firstWins: a later file never displaces a key an earlier file (a
	// shard, or an earlier shard in -figs order) already claimed. Shards
	// partition points disjointly, so among themselves the order is
	// immaterial; it is dst — absorbed last — that this demotes.
	absorb := func(path string, required bool) error {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) && !required {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: merge: %w", err)
		}
		var f checkpointFile
		if err := json.Unmarshal(data, &f); err != nil {
			if !required {
				return nil // a stale or torn dst just gets overwritten
			}
			return fmt.Errorf("core: merge: %s: %w", path, err)
		}
		if merged.Signature == "" {
			merged.Signature = f.Signature
		}
		if f.Signature != merged.Signature {
			if !required {
				return nil
			}
			return fmt.Errorf("core: merge: %s has signature %s, want %s (different campaign)",
				path, f.Signature, merged.Signature)
		}
		for key, r := range f.Runs {
			if r.Failed() {
				continue
			}
			if _, claimed := merged.Runs[key]; claimed {
				continue
			}
			merged.Runs[key] = r
		}
		return nil
	}
	for _, src := range srcs {
		if err := absorb(src, true); err != nil {
			return 0, err
		}
	}
	if err := absorb(dst, false); err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(&merged, "", " ")
	if err != nil {
		return 0, fmt.Errorf("core: merge: %w", err)
	}
	if err := fsatomic.WriteFile(dst, data); err != nil {
		return 0, fmt.Errorf("core: merge: %w", err)
	}
	return len(merged.Runs), nil
}
