package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/tuple"
)

// spanNames are the root span names per op kind, on the served path
// and in the embedded replay.
var (
	clientSpan = [numOpKinds]string{"client.get", "client.query_point", "client.query_range",
		"client.apply", "client.apply", "client.apply", "client.apply", "client.txn"}
	coreSpan = [numOpKinds]string{"core.lookup", "core.query_point", "core.query_range",
		"core.apply", "core.apply", "core.apply", "core.apply", "core.txn"}
)

// worker is one connection's closed loop: it sends its next request
// only after the previous one completed and checked out.
type worker struct {
	conn  int
	be    backend
	m     *model
	rows  int64 // loaded ids are [0, rows)
	spans *[numOpKinds]string
	rec   *recorder // nil when tracing is off

	live      []int64 // live owned ids at or above hotKeys
	nextFresh int64   // next id this connection inserts
	next      int     // stream position

	lat [numClasses][]int64 // ns, one per completed op
	// tick is the phase's slice clock (nil outside a timed phase);
	// marks[i] is len(lat[c]) per class when slice i ended.
	tick      *atomic.Int32
	marks     [][numClasses]int
	kinds     [numOpKinds]int64 // ops attempted, by kind
	attempted int64
	failed    int64
	txns      int64
	conflicts int64
	firstErr  error
}

func newWorker(conn int, be backend, m *model, rows int64, spans *[numOpKinds]string) *worker {
	w := &worker{conn: conn, be: be, m: m, rows: rows, spans: spans}
	for id := int64(hotKeys) + int64(conn); id < rows; id += connections {
		w.live = append(w.live, id)
	}
	for w.nextFresh = rows; w.nextFresh%connections != int64(conn); w.nextFresh++ {
	}
	return w
}

// owned maps any loaded id to the nearest id this connection may
// update: same parity as the connection, outside the hot set.
func (w *worker) owned(id int64) int64 {
	id += (int64(w.conn) - id%connections + connections) % connections
	if id >= w.rows {
		id -= connections
	}
	if id < hotKeys {
		id += hotKeys
	}
	return id
}

// exec runs one op against the backend and checks what came back.
func (w *worker) exec(o op) error {
	switch o.kind {
	case opGet:
		row, found, err := w.be.get(o.arg)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("get %d: not found", o.arg)
		}
		_, err = checkRow(row, o.arg)
		return err
	case opCovered:
		row, found, err := w.be.covered(o.arg)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("covered get %d: not found", o.arg)
		}
		return checkCovered(row, o.arg)
	case opScan:
		lo := min(o.arg, w.rows-scanRows)
		next := lo
		n, err := w.be.scan(lo, lo+scanRows, func(row tuple.Row) error {
			err := checkCovered(row, next)
			next++
			return err
		})
		if err == nil && n != scanRows {
			err = fmt.Errorf("scan [%d,%d): %d rows", lo, lo+scanRows, n)
		}
		return err
	case opInsert:
		return w.insert()
	case opUpdate:
		return w.update(w.owned(o.arg))
	case opUpdateLive:
		return w.update(w.live[o.arg%int64(len(w.live))])
	case opDelete:
		// Never drain the live list: below a floor a delete turns into
		// an insert (unreachable at the 60/30/10 mix, kept for safety).
		if len(w.live) < 1024 {
			return w.insert()
		}
		i := o.arg % int64(len(w.live))
		id := w.live[i]
		if _, err := w.be.mutate(opDelete, w.m.rid[id], nil); err != nil {
			return fmt.Errorf("delete %d: %w", id, err)
		}
		w.m.alive[id] = false
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		return nil
	case opTxn:
		w.txns++
		vers, conflict, err := w.be.txn(o.arg, w)
		if err != nil {
			return fmt.Errorf("txn on hot keys %d,%d: %w", o.arg, o.arg+1, err)
		}
		if conflict {
			w.conflicts++
			return nil
		}
		w.m.committedHot(o.arg, vers[0])
		w.m.committedHot(o.arg+1, vers[1])
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

func (w *worker) insert() error {
	id := w.nextFresh
	if int(id) >= len(w.m.alive) {
		return fmt.Errorf("insert %d: model capacity exhausted", id)
	}
	rid, err := w.be.mutate(opInsert, 0, rowFor(id, 0))
	if err != nil {
		return fmt.Errorf("insert %d: %w", id, err)
	}
	w.nextFresh += connections
	w.m.rid[id], w.m.ver[id], w.m.alive[id] = rid, 0, true
	w.live = append(w.live, id)
	return nil
}

func (w *worker) update(id int64) error {
	ver := w.m.ver[id] + 1
	rid, err := w.be.mutate(opUpdate, w.m.rid[id], rowFor(id, ver))
	if err != nil {
		return fmt.Errorf("update %d to v%d: %w", id, ver, err)
	}
	w.m.rid[id], w.m.ver[id] = rid, ver
	return nil
}

// step runs the next op of the stream, timing it and recording its
// root span.
func (w *worker) step(stream []op) {
	o := stream[w.next%len(stream)]
	w.next++
	start := time.Now()
	w.rec.open(w.spans[o.kind], start)
	err := w.exec(o)
	end := time.Now()
	w.rec.close(end)
	w.attempted++
	w.kinds[o.kind]++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	} else {
		c := o.kind.class()
		w.lat[c] = append(w.lat[c], int64(end.Sub(start)))
	}
	if w.tick != nil {
		w.markSlices(int(w.tick.Load()))
	}
}

// markSlices closes every slice below n that is still open: an op
// belongs to the slice it completed in.
func (w *worker) markSlices(n int) {
	for len(w.marks) < n {
		var m [numClasses]int
		for c := range w.lat {
			m[c] = len(w.lat[c])
		}
		w.marks = append(w.marks, m)
	}
}

// resetCounts forgets what earlier phases measured.
func (w *worker) resetCounts() {
	for c := range w.lat {
		w.lat[c] = w.lat[c][:0]
	}
	w.marks = w.marks[:0]
	w.kinds = [numOpKinds]int64{}
	w.attempted, w.failed, w.txns, w.conflicts = 0, 0, 0, 0
}

// numSlices is how many equal stretches a timed phase is cut into. The
// rates are medians over them, so a stall that hits a few slices (a
// noisy neighbour on a shared 2-core box, a checkpoint) does not
// decide a run's number.
const numSlices = 20

// sliceStat is one slice of a timed phase.
type sliceStat struct {
	opsPerSec  float64
	cpuUSPerOp float64             // process user+sys over the slice, client included
	p50US      [numClasses]float64 // median latency of the ops completed in it, by class
}

// phase is what one stretch of the closed loop measured.
type phase struct {
	elapsed   time.Duration
	slices    []sliceStat // timed phases only
	attempted int64
	failed    int64
	txns      int64
	conflicts int64
	kinds     [numOpKinds]int64
	lat       [numClasses][]int64
}

func (p *phase) completed() int64 { return p.attempted - p.failed }

// median returns the median over the phase's slices of one statistic.
func (p *phase) median(of func(sliceStat) float64) float64 {
	vals := make([]float64, len(p.slices))
	for i, s := range p.slices {
		vals[i] = of(s)
	}
	return medianFloat(vals)
}

func (p *phase) opsPerSec() float64 {
	return p.median(func(s sliceStat) float64 { return s.opsPerSec })
}

func (p *phase) cpuUSPerOp() float64 {
	return p.median(func(s sliceStat) float64 { return s.cpuUSPerOp })
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives every worker's closed loop at once. With count > 0
// each worker runs exactly count ops (the fixed warm-up); otherwise
// the loops run for d, cut into slices.
func runPhase(workers []*worker, streams [][]op, count int, d time.Duration) phase {
	var tick atomic.Int32
	for _, w := range workers {
		w.resetCounts()
		if count == 0 {
			w.tick = &tick
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	type edge struct {
		at  time.Time
		cpu time.Duration
	}
	start := time.Now()
	edges := []edge{{at: start, cpu: cpuTime()}}
	for i, w := range workers {
		wg.Add(1)
		go func(w *worker, stream []op) {
			defer wg.Done()
			for n := 0; count > 0 && n < count || count == 0 && !stop.Load(); n++ {
				w.step(stream)
			}
		}(w, streams[i])
	}
	if count == 0 {
		for i := 1; i <= numSlices; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / numSlices)))
			edges = append(edges, edge{at: time.Now(), cpu: cpuTime()})
			tick.Add(1)
		}
		stop.Store(true)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, w := range workers {
		w.markSlices(len(edges) - 1) // a worker that completed nothing since the last edge closes its slices here
		w.tick = nil
		p.attempted += w.attempted
		p.failed += w.failed
		p.txns += w.txns
		p.conflicts += w.conflicts
		for k, n := range w.kinds {
			p.kinds[k] += n
		}
		for c := range w.lat {
			p.lat[c] = append(p.lat[c], w.lat[c]...)
		}
	}
	var lat []int64
	for i := 1; i < len(edges); i++ {
		st := sliceStat{}
		ops := 0
		for c := range st.p50US {
			lat = lat[:0]
			for _, w := range workers {
				lo := 0
				if i > 1 {
					lo = w.marks[i-2][c]
				}
				lat = append(lat, w.lat[c][lo:w.marks[i-1][c]]...)
			}
			ops += len(lat)
			st.p50US[c] = percentile(lat, 50, 1e3)
		}
		st.opsPerSec = float64(ops) / edges[i].at.Sub(edges[i-1].at).Seconds()
		st.cpuUSPerOp = ratio(float64((edges[i].cpu - edges[i-1].cpu).Microseconds()), float64(ops))
		p.slices = append(p.slices, st)
	}
	return p
}

func firstError(workers []*worker) error {
	for _, w := range workers {
		if w.firstErr != nil {
			return w.firstErr
		}
	}
	return nil
}
