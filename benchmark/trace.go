package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op; Parent indexes the owning recorder's spans (-1 for a root).
type span struct {
	Op     uint64
	Name   string
	Parent int32
	Start  int64 // ns since the recorder's epoch
	Dur    int64
}

// recorder keeps one goroutine's spans in memory; nothing is written
// until the run ends. A nil recorder records nothing, so the measured
// (tracing-off) run shares the traced run's code.
type recorder struct {
	epoch time.Time
	spans []span
	op    uint64
	cur   int32 // the open root span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity), cur: -1}
}

// open starts the root span of the next op.
func (r *recorder) open(name string, at time.Time) {
	if r == nil {
		return
	}
	r.op++
	r.cur = int32(len(r.spans))
	r.spans = append(r.spans, span{Op: r.op, Name: name, Parent: -1, Start: int64(at.Sub(r.epoch))})
}

// close ends the open root span.
func (r *recorder) close(at time.Time) {
	if r == nil {
		return
	}
	s := &r.spans[r.cur]
	s.Dur = int64(at.Sub(r.epoch)) - s.Start
}

// now is time.Now when recording and the zero time otherwise.
func (r *recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// child records a span under the open root from start until now and
// returns now, so consecutive steps chain.
func (r *recorder) child(name string, start time.Time) time.Time {
	if r == nil {
		return time.Time{}
	}
	end := time.Now()
	r.spans = append(r.spans, span{Op: r.op, Name: name, Parent: r.cur,
		Start: int64(start.Sub(r.epoch)), Dur: int64(end.Sub(start))})
	return end
}

// probe times fn as a child of the last root span. The root has
// already closed: a probe repeats, right after the real call and on
// the same objects, one of the steps that call made inside the engine.
func (r *recorder) probe(name string, fn func()) {
	start := time.Now()
	fn()
	r.child(name, start)
}

// durations returns the durations (ns) of every span called name.
func durations(recs []*recorder, name string) []int64 {
	var out []int64
	for _, r := range recs {
		for i := range r.spans {
			if r.spans[i].Name == name {
				out = append(out, r.spans[i].Dur)
			}
		}
	}
	return out
}

// selfTimes returns, for every root span called name, its duration
// minus the summed durations of its children.
func selfTimes(r *recorder, name string) []int64 {
	var out []int64
	for i := 0; i < len(r.spans); i++ {
		if r.spans[i].Parent != -1 || r.spans[i].Name != name {
			continue
		}
		self := r.spans[i].Dur
		for j := i + 1; j < len(r.spans) && r.spans[j].Parent != -1; j++ {
			if r.spans[j].Parent == int32(i) {
				self -= r.spans[j].Dur
			}
		}
		out = append(out, self)
	}
	return out
}

// maxTraceOps caps the ops written per recorder; the metrics use
// every span, the file a strided sample of whole ops.
const maxTraceOps = 10_000

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     string `json:"op"`     // "<source>#<n>": spans of one op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Sources  []string    `json:"sources"`
	Stride   []int       `json:"op_stride"` // every n-th op of each source was kept
	Spans    []traceSpan `json:"spans"`
}

// writeTrace writes a sample of the recorded spans to
// <dir>/<workload>.trace.json. sources names each recorder
// ("conn0", "conn1", "embedded").
func writeTrace(dir, workloadName string, seed int64, sources []string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workloadName, Seed: seed, Sources: sources}
	for si, r := range recs {
		stride := int(r.op)/maxTraceOps + 1
		tf.Stride = append(tf.Stride, stride)
		ids := make(map[int32]int)
		for i := range r.spans {
			s := &r.spans[i]
			if s.Op%uint64(stride) != 0 {
				continue
			}
			id := len(tf.Spans)
			ids[int32(i)] = id
			parent := -1
			if s.Parent >= 0 {
				parent = ids[s.Parent]
			}
			tf.Spans = append(tf.Spans, traceSpan{ID: id, Parent: parent,
				Op: fmt.Sprintf("%s#%d", sources[si], s.Op), Name: s.Name, Start: s.Start, Dur: s.Dur})
		}
	}
	path := filepath.Join(dir, workloadName+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(&tf); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
