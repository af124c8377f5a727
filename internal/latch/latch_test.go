package latch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestTryLockGivesUpWhenHeld(t *testing.T) {
	var l Latch
	l.Lock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded while held exclusively")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on free latch")
	}
	l.Unlock()
}

func TestSharedHoldersBlockExclusiveTry(t *testing.T) {
	var l Latch
	l.RLock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded under a shared hold")
	}
	l.RUnlock()
}

func TestConcurrentCounting(t *testing.T) {
	var l Latch
	l.Lock()
	var wg sync.WaitGroup
	var giveUps atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.TryLock() {
				giveUps.Add(1)
			}
		}()
	}
	wg.Wait()
	l.Unlock()
	if giveUps.Load() != 8 {
		t.Errorf("%d of 8 TryLocks gave up under an exclusive hold, want 8", giveUps.Load())
	}
}
