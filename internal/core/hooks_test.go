package core

import (
	"fmt"

	"repro/internal/storage"
)

// The engine's test-only surface: what this package's tests read or
// arm, and nothing outside them calls.

// Key returns the current encoded index key for index-backed cursors
// (nil for heap-order scans). Like Row it aliases scratch; copy to
// retain.
func (c *Cursor) Key() []byte { return c.key }

// Restart simulates a crash/restart cycle for cache-consistency tests:
// all dirty pages flush, every frame is evicted, and each table's
// cached indexes bump their CSNidx so persisted stale cache bytes can
// never be served (the Section 2.1.2 full-invalidation path).
func (e *Engine) Restart() error {
	if e.wal != nil {
		// A checkpoint is the WAL engine's flush: it cleans every dirty
		// frame, which EvictAll below needs under the no-steal policy.
		if err := e.Checkpoint(); err != nil {
			return err
		}
	} else if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if err := e.pool.EvictAll(); err != nil {
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, t := range e.tables {
		for _, ix := range t.indexes {
			if ix.cache != nil {
				ix.cache.InvalidateAll()
			}
		}
	}
	return nil
}

// Clock returns the engine's last committed transaction timestamp.
func (e *Engine) Clock() uint64 { return e.clock.Load() }

// Query opens a cursor over the index's key range. The default policy
// answers coverable projections straight from the index cache. The
// cursor contract (pin lifetime, Close, scratch rows, writer
// interaction) is the same as Table.Query's.
func (ix *Index) Query(opts ...QueryOption) (*Cursor, error) {
	c := new(Cursor)
	c.reopen(opts, false)
	if c.cfg.index != "" {
		return nil, fmt.Errorf("core: WithIndex is only valid on Table.Query")
	}
	return c.opened(ix.query(c))
}

// Delete removes the row at rid, maintaining indexes and invalidating
// affected cache entries. Heap slot reuse makes invalidation mandatory:
// a future tuple could receive the same RID, and a stale cache entry
// keyed by that RID would otherwise serve the old tuple's bytes.
// Index entries go first, then the heap row (via a one-op Batch), so a
// concurrent index reader can never hold an entry whose heap row is
// already gone.
func (t *Table) Delete(rid storage.RID) error {
	var b Batch
	b.Delete(rid)
	_, err := t.Apply(&b)
	return err
}

// TestingFailCommitAfter arms a one-shot commit failure at the n-th
// landing step, counted across tables in commit order: each record of a
// table's heap run is one step (so a run can die with only some of its
// records placed), then each of its index upsert runs is one. n = 0
// disarms.
func TestingFailCommitAfter(n int) { testCommitFailAfter.Store(int64(n)) }
