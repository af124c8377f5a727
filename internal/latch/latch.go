// Package latch provides short-term page latches with a try-acquire
// path. Section 2.1.3 of the paper requires that index-cache writes
// take only short latches and "give up a write operation if the latch
// is not immediately available"; TryLock supports exactly that.
package latch

import "sync"

// Latch is a reader/writer page latch. The zero value is ready to use.
type Latch struct {
	mu sync.RWMutex
}

// Lock acquires the latch exclusively, blocking.
func (l *Latch) Lock() { l.mu.Lock() }

// Unlock releases an exclusive hold.
func (l *Latch) Unlock() { l.mu.Unlock() }

// RLock acquires the latch shared, blocking.
func (l *Latch) RLock() { l.mu.RLock() }

// RUnlock releases a shared hold.
func (l *Latch) RUnlock() { l.mu.RUnlock() }

// TryLock attempts an exclusive acquire without blocking. On failure it
// returns false — the caller abandons its cache write, per the paper's
// protocol.
func (l *Latch) TryLock() bool { return l.mu.TryLock() }
