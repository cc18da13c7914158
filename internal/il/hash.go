package il

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// hashEncodingVersion tags the canonical binary encoding; bump it whenever
// the Kernel struct gains a field that must participate in the content
// address, so stale cross-version hashes can never collide with new ones.
const hashEncodingVersion = 1

// encodeBufPool recycles the scratch buffers Hash encodes kernels into.
var encodeBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// AppendBinary appends the kernel's canonical fixed binary encoding to dst
// and returns the extended slice. The encoding is injective: the name is
// length-prefixed and every other field is fixed-width, so two structurally
// different kernels always encode to different byte strings. That makes
// Hash exactly as collision-resistant as SHA-256 itself, without ever
// rendering the kernel to assembly text.
func (k *Kernel) AppendBinary(dst []byte) []byte {
	var scratch [10 * 8]byte
	le := binary.LittleEndian

	dst = append(dst, hashEncodingVersion)
	le.PutUint64(scratch[:], uint64(len(k.Name)))
	dst = append(dst, scratch[:8]...)
	dst = append(dst, k.Name...)

	le.PutUint64(scratch[0:], uint64(k.Mode))
	le.PutUint64(scratch[8:], uint64(k.Type))
	le.PutUint64(scratch[16:], uint64(int64(k.NumInputs)))
	le.PutUint64(scratch[24:], uint64(int64(k.NumOutputs)))
	le.PutUint64(scratch[32:], uint64(k.InputSpace))
	le.PutUint64(scratch[40:], uint64(k.OutSpace))
	le.PutUint64(scratch[48:], uint64(int64(k.NumConsts)))
	le.PutUint64(scratch[56:], uint64(int64(len(k.Code))))
	dst = append(dst, scratch[:64]...)

	for i := range k.Code {
		in := &k.Code[i]
		le.PutUint64(scratch[0:], uint64(in.Op))
		le.PutUint64(scratch[8:], uint64(int64(in.Dst)))
		le.PutUint64(scratch[16:], uint64(int64(in.SrcA)))
		le.PutUint64(scratch[24:], uint64(int64(in.SrcB)))
		le.PutUint64(scratch[32:], uint64(int64(in.Res)))
		dst = append(dst, scratch[:40]...)
	}
	return dst
}

// Hash returns the kernel's structural content address: the SHA-256 of its
// canonical binary encoding. It is an eager seal's identity, the start
// of the pipeline's simulate and persist keys — two kernels share a hash
// exactly when Assemble would render them to identical text, but
// computing it does no text serialization and, in steady state, no
// allocation.
func (k *Kernel) Hash() [sha256.Size]byte {
	bp := encodeBufPool.Get().(*[]byte)
	b := k.AppendBinary((*bp)[:0])
	sum := sha256.Sum256(b)
	*bp = b
	encodeBufPool.Put(bp)
	return sum
}

// Sealed is a kernel frozen for the launch path: the kernel plus its
// identity, structural hash, Validate result and compiled programs
// (Memo), each computed once. A sweep launches one kernel many times
// (every card, every retry, every warm rerun of a figure), so a sealed
// kernel pays for each once instead of once per launch.
//
// A seal is eager or deferred. Seal and SealValid wrap a kernel already
// built; its identity is its content hash. SealDeferred wraps a kernel
// not built yet: its builder (a generator with settled parameters)
// names the source, and the seal's identity is that source's digest, so
// a launch served from a store keyed by it never builds the code. Name
// and Mode are known either way; Kernel, Hash and Validate build a
// deferred seal's code on first use, once, however many goroutines ask.
//
// The memo lives in the artifact, not in a table keyed by the kernel's
// address: sealing is the promise that the kernel is never mutated again,
// and a kernel that must change is copied and sealed anew.
type Sealed struct {
	Name string
	Mode ShaderMode

	id    [sha256.Size]byte // a deferred seal's source digest
	build func() (*Kernel, error)

	buildOnce sync.Once
	built     atomic.Bool
	k         *Kernel
	buildErr  error

	hashOnce  sync.Once
	hash      [sha256.Size]byte
	validOnce sync.Once
	validErr  error

	memoMu sync.Mutex
	memos  []any // one *memo[K, V] per Memo key
}

type memo[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error
}

// Memo returns what compute derives from the seal under key, computing
// it once per key however many goroutines ask; hit reports that this
// call did not compute. The value and its error live as long as the
// seal, so compute must be a pure function of the seal and key. The
// pipeline keeps compiled programs here, keyed by target and options.
func Memo[K comparable, V any](s *Sealed, key K, compute func() (V, error)) (v V, hit bool, err error) {
	s.memoMu.Lock()
	var m *memo[K, V]
	for _, x := range s.memos {
		if e, ok := x.(*memo[K, V]); ok && e.key == key {
			m = e
			break
		}
	}
	if m == nil {
		m = &memo[K, V]{key: key}
		s.memos = append(s.memos, m)
	}
	s.memoMu.Unlock()
	hit = true
	m.once.Do(func() {
		hit = false
		m.val, m.err = compute()
	})
	return m.val, hit, m.err
}

// Seal wraps a kernel its builder has finished with. Callers seal once,
// where the kernel is built, and hand the *Sealed around from then on.
func Seal(k *Kernel) *Sealed { return &Sealed{Name: k.Name, Mode: k.Mode, k: k} }

// SealValid is Seal for a kernel its builder has just validated: the
// seal records Validate's nil result instead of walking the code again.
// Call it only right after a k.Validate() that returned nil.
func SealValid(k *Kernel) *Sealed {
	s := Seal(k)
	s.validOnce.Do(func() {})
	return s
}

// SealDeferred seals a kernel that build makes on first use. id names
// the source build works from; it must differ for any two sources whose
// kernels may differ, and must never equal a content hash (tag its
// encoding). name and mode must be the built kernel's. build validates
// what it returns: its error is the seal's Validate result.
func SealDeferred(id [sha256.Size]byte, name string, mode ShaderMode, build func() (*Kernel, error)) *Sealed {
	return &Sealed{Name: name, Mode: mode, id: id, build: build}
}

// Deferred reports whether the seal was made by SealDeferred.
func (s *Sealed) Deferred() bool { return s.build != nil }

// Built reports whether Kernel would return without building.
func (s *Sealed) Built() bool { return s.build == nil || s.built.Load() }

// Kernel returns the sealed kernel, building a deferred seal's code on
// the first call. The error is the build's; an eager seal has none.
func (s *Sealed) Kernel() (*Kernel, error) {
	if s.build == nil {
		return s.k, nil
	}
	s.buildOnce.Do(func() {
		s.k, s.buildErr = s.build()
		s.built.Store(true)
	})
	return s.k, s.buildErr
}

// ID returns the seal's identity, the digest the pipeline keys compiled
// programs and timing results by: the source digest of a deferred seal,
// which needs no build, and the content hash of an eager one.
func (s *Sealed) ID() [sha256.Size]byte {
	if s.build != nil {
		return s.id
	}
	h, _ := s.Hash() // an eager seal has its kernel
	return h
}

// Hash returns Kernel.Hash, computed on the first call. A deferred seal
// builds its code for it; a failed build is Hash's error.
func (s *Sealed) Hash() ([sha256.Size]byte, error) {
	k, err := s.Kernel()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	s.hashOnce.Do(func() { s.hash = k.Hash() })
	return s.hash, nil
}

// Validate returns Kernel.Validate, computed on the first call. A
// deferred seal's builder validated what it built, so its answer is the
// build's error.
func (s *Sealed) Validate() error {
	if s.build != nil {
		_, err := s.Kernel()
		return err
	}
	s.validOnce.Do(func() { s.validErr = s.k.Validate() })
	return s.validErr
}
