package core

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestLookupFuncHoldsNoLatch: fn runs after the leaf was released, so it
// may do what a latch holder may not — here, insert a row on the very
// leaf the lookup read (the last key's, where a larger one lands). Had
// the latch been held, the insert would wait for fn and fn for the
// insert. A missing key calls fn once with no row.
func TestLookupFuncHoldsNoLatch(t *testing.T) {
	_, tb, ix := newQueryFixture(t, 100, true)
	const id = 99
	calls := 0
	err := ix.LookupFunc(nil, func(row tuple.Row, res LookupResult) {
		calls++
		if !res.Found || row[0].Int != id || row[1].Int != 3*id {
			t.Errorf("LookupFunc(%d): %v %+v", id, row, res)
		}
		done := make(chan error, 1)
		go func() {
			_, err := tb.Insert(intRow(1000 + id))
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("insert from fn: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("an insert on the looked-up leaf blocked while fn ran: the latch is still held")
		}
	}, tuple.Int64(id))
	if err != nil || calls != 1 {
		t.Fatalf("LookupFunc: fn called %d times, %v", calls, err)
	}
	calls = 0
	err = ix.LookupFunc(nil, func(row tuple.Row, res LookupResult) {
		calls++
		if res.Found || row != nil {
			t.Errorf("missing key: %v %+v", row, res)
		}
	}, tuple.Int64(5000))
	if err != nil || calls != 1 {
		t.Fatalf("LookupFunc on a missing key: fn called %d times, %v", calls, err)
	}
}
