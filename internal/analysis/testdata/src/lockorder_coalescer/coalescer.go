// Package lockorder_coalescer is the fixture for ARCHITECTURE.md rule 8:
// the server coalescer's mutex is a leaf. LeadHolding keeps it across
// the cycle's Apply (flagged: a parked handler would wait on a mutex
// whose holder waits on the commit gate); Lead is the shipped shape —
// the mutex guards the baton for a few instructions on either side of
// the Apply and is never held into it (clean).
package lockorder_coalescer

import "sync"

// Engine mirrors the part of core.Engine an Apply goes through.
type Engine struct {
	// nblb:lock commitGate
	commitGate sync.RWMutex
}

// Apply takes the commit gate shared, as Table.Apply does.
func (e *Engine) Apply() {
	e.commitGate.RLock()
	e.commitGate.RUnlock()
}

type coalescer struct {
	eng *Engine
	// nblb:lock coalescer-mu
	mu     sync.Mutex
	busy   bool
	parked int
}

// LeadHolding applies the cycle with the baton's mutex still held.
func (c *coalescer) LeadHolding() {
	c.mu.Lock()
	c.busy = true
	c.eng.Apply() // want "call may acquire \"commitGate\" \(via Engine\.Apply\) while holding \"coalescer-mu\" .*rule 8"
	c.busy = false
	c.mu.Unlock()
}

// GateHolding takes the gate itself under the mutex.
func (c *coalescer) GateHolding() {
	c.mu.Lock()
	c.eng.commitGate.RLock() // want "acquires \"commitGate\" while holding \"coalescer-mu\""
	c.eng.commitGate.RUnlock()
	c.mu.Unlock()
}

// Lead claims the baton, applies with nothing held, and passes it on.
func (c *coalescer) Lead() {
	c.mu.Lock()
	if c.busy {
		c.parked++
		c.mu.Unlock()
		return
	}
	c.busy = true
	c.mu.Unlock()
	c.eng.Apply()
	c.mu.Lock()
	c.busy = c.parked > 0
	c.mu.Unlock()
}
