package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// MaxPooledBuffer bounds what a pool on the request path may retain:
// a buffer grown past it (one huge Apply, one wide page) is dropped on
// release instead of pinning its memory for the life of the process.
const MaxPooledBuffer = 64 << 10

// Buffer is a pooled frame buffer: the client builds request frames in
// one and reads responses into one, the server encodes every response
// in one. Exactly one party owns a Buffer at a time; ownership moves
// with the pointer (see ARCHITECTURE.md, "Buffer ownership"), and the
// last owner calls Release. The rule for everyone who reads B: copy out
// before release.
type Buffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// NewFrame returns a pooled buffer with a frame begun in it: the caller
// marshals the payload straight behind the reserved header (b.B =
// m.Marshal(b.B)) and seals it once the request ID is known.
func NewFrame() *Buffer {
	b := GetBuffer()
	b.B = BeginFrame(b.B)
	return b
}

// Seal finishes the frame NewFrame began (see FinishFrame; sealing
// again with another request ID is allowed).
func (b *Buffer) Seal(reqID uint64, typ uint8) { FinishFrame(b.B, 0, reqID, typ) }

// Release returns b to the pool. Nothing may read b.B afterwards.
func (b *Buffer) Release() {
	b.B = Recycle(b.B)
	bufferPool.Put(b)
}

// Recycle readies a byte buffer for its next user on the way into a
// pool: emptied, dropped when it outgrew MaxPooledBuffer, and — under
// the test-only poison hook — overwritten first, so a reader that kept
// a slice of it past its release sees 0xDB instead of plausible data.
func Recycle(b []byte) []byte {
	if poison.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if cap(b) > MaxPooledBuffer {
		return nil
	}
	return b[:0]
}

// RecycleRow is Recycle for a decoded row used as scratch.
func RecycleRow(r tuple.Row) tuple.Row {
	if poison.Load() {
		r = r[:cap(r)]
		for i := range r {
			r[i] = poisonValue
		}
	}
	return r[:0]
}

// PoisonByte is what the poison hook fills released buffers with.
const PoisonByte = 0xDB

var (
	poison      atomic.Bool
	poisonValue = tuple.Value{Kind: tuple.Kind(PoisonByte), Int: -0x2424242424242425, Str: "\xdb\xdb\xdb\xdb released"}
)

// PoisonReleased turns the poison hook on or off: while on, every
// buffer and scratch row is overwritten with PoisonByte as it returns
// to a pool. It enforces "copy out before release" in the
// buffer-ownership tests; nothing outside tests calls it.
func PoisonReleased(on bool) { poison.Store(on) }
