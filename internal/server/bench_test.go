package server_test

import (
	"testing"

	"repro/client"
)

// Served-path benchmarks: one loopback client connection against a real
// server, the three request shapes the served benchmark's workloads are
// made of. allocs/op counts both sides of the socket (see
// TestServedAllocBudgets, which gates the same numbers).

func benchServed(b *testing.B, n int) (*client.Client, []uint64) {
	f := startServer(b)
	b.Cleanup(func() { f.stop(b) })
	rids := setupItems(b, f.eng, n)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl, rids
}

func BenchmarkServedGet(b *testing.B) {
	const n = 2000
	cl, _ := benchServed(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i*31+7) % n
		if _, found, err := cl.Get("items", "by_id", client.Int64(id)); err != nil || !found {
			b.Fatalf("Get %d: found=%v err=%v", id, found, err)
		}
	}
}

func BenchmarkServedPointQuery(b *testing.B) {
	const n = 2000
	cl, _ := benchServed(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coveredPoint(cl, int64(i*31+7)%n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServedApply(b *testing.B) {
	cl, rids := benchServed(b, 16)
	rows := [2]client.Row{itemRow(5, 1), itemRow(5, 2)}
	rid := rids[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch client.Batch
		batch.Update(rid, rows[i&1])
		res, err := cl.Apply("items", &batch)
		if err != nil || res.Applied != 1 {
			b.Fatalf("Apply: %v %v", err, res.Err(0))
		}
		rid = res.RIDs[0]
	}
}
