package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/tuple"
)

// benchIndex builds an engine, a populated table, and a cached unique
// index over it.
func benchIndex(b *testing.B, rows, poolPages int, cached bool) *Index {
	b.Helper()
	e, err := NewEngine(Options{PageSize: 4096, BufferPoolPages: poolPages})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	opts := []IndexOption{WithFillFactor(0.68)}
	if cached {
		opts = append(opts, WithCache("latest_rev", "len"), WithCacheSeed(1))
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

var benchProj = []string{"namespace", "title", "latest_rev", "len"}

// benchKeys precomputes key values so benchmark loops measure the
// lookup, not fmt.Sprintf.
func benchKeys(rows int) [][]tuple.Value {
	keys := make([][]tuple.Value, rows)
	for i := range keys {
		keys[i] = pageKey(i)
	}
	return keys
}

// BenchmarkLookupHitParallel is the paper's headline path under
// parallel load: every lookup is answered from the index-leaf cache,
// no heap access.
func BenchmarkLookupHitParallel(b *testing.B) {
	const rows = 8000
	ix := benchIndex(b, rows, 1<<14, true)
	if _, err := ix.WarmCache(); err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(rows)
	// Verified cache-resident keys only.
	var hot [][]tuple.Value
	for i := 0; i < rows; i++ {
		if _, res, err := ix.Lookup(benchProj, keys[i]...); err == nil && res.CacheHit {
			hot = append(hot, keys[i])
		}
	}
	if len(hot) == 0 {
		b.Fatal("no cache-resident keys")
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1) * 0x9E3779B9
		buf := make(tuple.Row, 0, len(benchProj))
		for pb.Next() {
			n = n*1103515245 + 12345
			row, _, err := ix.LookupInto(buf, benchProj, hot[n%uint64(len(hot))]...)
			if err != nil {
				b.Error(err)
				return
			}
			buf = row
		}
	})
}

// BenchmarkLookupMissParallel is the heap path: no index cache, the
// pool holds a fraction of the working set, so lookups fetch heap pages
// through eviction churn.
func BenchmarkLookupMissParallel(b *testing.B) {
	const rows = 8000
	ix := benchIndex(b, rows, 96, false)
	keys := benchKeys(rows)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1) * 0x9E3779B9
		buf := make(tuple.Row, 0, len(benchProj))
		for pb.Next() {
			n = n*1103515245 + 12345
			row, _, err := ix.LookupInto(buf, benchProj, keys[n%uint64(rows)]...)
			if err != nil {
				b.Error(err)
				return
			}
			buf = row
		}
	})
}

// BenchmarkLookupMixedParallel interleaves cached lookups with updates
// (1 in 16) that invalidate cache entries through the predicate log —
// the read-mostly OLTP mix the paper targets.
func BenchmarkLookupMixedParallel(b *testing.B) {
	const rows = 4000
	ix := benchIndex(b, rows, 1<<14, true)
	if _, err := ix.WarmCache(); err != nil {
		b.Fatal(err)
	}
	tb := ix.table
	keys := benchKeys(rows)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1) * 0x9E3779B9
		buf := make(tuple.Row, 0, len(benchProj))
		for pb.Next() {
			n = n*1103515245 + 12345
			i := int(n % uint64(rows))
			if n%16 == 0 {
				rid, found, err := ix.LookupRID(keys[i]...)
				if err != nil || !found {
					b.Errorf("update lookup %d: %v", i, err)
					return
				}
				row, err := tb.Get(rid)
				if err != nil {
					b.Error(err)
					return
				}
				row[4] = tuple.Int64(row[4].Int + 1)
				if _, err := tb.Update(rid, row); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			row, _, err := ix.LookupInto(buf, benchProj, keys[i]...)
			if err != nil {
				b.Error(err)
				return
			}
			buf = row
		}
	})
}
