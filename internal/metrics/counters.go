// Package metrics provides the atomic Counter and the latency cost model
// shared by the simulation-backed experiments.
//
// The paper's Figure 2(b) experiment is itself a simulation: the index
// and buffer pool are "large in-memory arrays" and a buffer-pool miss
// reads a page from an on-disk file. CostModel captures that three-tier
// latency hierarchy (index-cache probe, buffer-pool page access, disk
// read) so the experiment is deterministic and machine-independent.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }
