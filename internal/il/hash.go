package il

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
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
// canonical binary encoding. It is the compile pipeline's cache key — two
// kernels share a hash exactly when Assemble would render them to identical
// text, but computing it does no text serialization and, in steady state,
// no allocation.
func (k *Kernel) Hash() [sha256.Size]byte {
	bp := encodeBufPool.Get().(*[]byte)
	b := k.AppendBinary((*bp)[:0])
	sum := sha256.Sum256(b)
	*bp = b
	encodeBufPool.Put(bp)
	return sum
}

// Sealed is a kernel frozen for the launch path: the kernel plus its
// structural hash and Validate result, each computed once, on first use.
// A sweep launches one kernel many times (every card, every retry, every
// warm rerun of a figure), and the pipeline's compile and simulate keys
// start from the hash while every module load starts from Validate, so a
// sealed kernel pays for each once instead of once per launch.
//
// The memo lives in the artifact, not in a table keyed by the kernel's
// address: sealing is the promise that the kernel is never mutated again,
// and a kernel that must change is copied and sealed anew. The embedded
// Kernel gives read access to every field.
type Sealed struct {
	*Kernel

	hashOnce  sync.Once
	hash      [sha256.Size]byte
	validOnce sync.Once
	validErr  error
}

// Seal wraps a kernel its builder has finished with. Callers seal once,
// where the kernel is built, and hand the *Sealed around from then on.
func Seal(k *Kernel) *Sealed { return &Sealed{Kernel: k} }

// Hash returns Kernel.Hash, computed on the first call.
func (s *Sealed) Hash() [sha256.Size]byte {
	s.hashOnce.Do(func() { s.hash = s.Kernel.Hash() })
	return s.hash
}

// Validate returns Kernel.Validate, computed on the first call.
func (s *Sealed) Validate() error {
	s.validOnce.Do(func() { s.validErr = s.Kernel.Validate() })
	return s.validErr
}
