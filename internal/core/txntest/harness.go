// Package txntest is a model-checking harness for the engine's MVCC
// snapshot transactions. It executes randomized schedules of
// transaction steps — begins, staged batches, commits, aborts,
// snapshot and latest reads, GC passes — against a real engine AND
// against a sequential in-memory oracle, and asserts that every
// observed read is the one a serial execution at the reader's snapshot
// would have produced, and that every commit verdict (success,
// conflict, duplicate) is the one first-committer-wins prescribes.
//
// On divergence the harness shrinks the failing schedule to a minimal
// reproduction by greedy delta-debugging (drop a step, re-run from
// scratch, keep the drop while the failure persists) before reporting.
// Schedules derive deterministically from a seed, so the committed seed
// corpus replays identically in CI.
package txntest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/tuple"
)

// StepKind enumerates schedule steps.
type StepKind uint8

const (
	StepBegin      StepKind = iota // open transaction in slot
	StepStage                      // stage one batch of writes in slot
	StepCommit                     // commit slot
	StepAbort                      // abort slot
	StepRead                       // snapshot read in slot, via Mode
	StepReadLatest                 // non-transactional read, via Mode
	StepGC                         // run a full GC pass
)

// ReadMode selects the read path a StepRead/StepReadLatest exercises —
// visibility must hold on every one of them.
type ReadMode uint8

const (
	ReadHeap      ReadMode = iota // heap-order scan
	ReadUnique                    // unique-index scan (version chains)
	ReadNonUnique                 // non-unique-index scan (per-RID)
	ReadParallel                  // parallel segmented scan over the unique index
	readModes
)

func (m ReadMode) String() string {
	switch m {
	case ReadHeap:
		return "heap"
	case ReadUnique:
		return "uniq"
	case ReadNonUnique:
		return "nonuniq"
	case ReadParallel:
		return "par"
	}
	return fmt.Sprintf("mode%d", uint8(m))
}

// Step is one schedule entry. Keys for StepStage are key *candidates*:
// the executor decides insert/update/delete per key from the model
// state at execution time, so a schedule stays well-formed under
// shrinking.
type Step struct {
	Kind StepKind
	Slot int
	Mode ReadMode
	Keys []int64
	Dels uint64 // bitmask over Keys: prefer delete for these candidates
}

func (s Step) String() string {
	switch s.Kind {
	case StepBegin:
		return fmt.Sprintf("begin(%d)", s.Slot)
	case StepStage:
		parts := make([]string, len(s.Keys))
		for i, k := range s.Keys {
			verb := "put"
			if s.Dels&(1<<uint(i)) != 0 {
				verb = "del"
			}
			parts[i] = fmt.Sprintf("%s:%d", verb, k)
		}
		return fmt.Sprintf("stage(%d, %s)", s.Slot, strings.Join(parts, " "))
	case StepCommit:
		return fmt.Sprintf("commit(%d)", s.Slot)
	case StepAbort:
		return fmt.Sprintf("abort(%d)", s.Slot)
	case StepRead:
		return fmt.Sprintf("read(%d, %s)", s.Slot, s.Mode)
	case StepReadLatest:
		return fmt.Sprintf("readLatest(%s)", s.Mode)
	case StepGC:
		return "gc()"
	}
	return fmt.Sprintf("step%d", s.Kind)
}

// FormatSchedule renders a schedule one step per line — the shape a
// failure report embeds.
func FormatSchedule(steps []Step) string {
	var b strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&b, "  %3d: %s\n", i, s)
	}
	return b.String()
}

// Config bounds schedule generation.
type Config struct {
	Slots    int // concurrent transaction slots (default 4)
	Keys     int // key space size (default 12)
	Steps    int // schedule length (default 40)
	MaxBatch int // max write candidates per stage step (default 4)
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Keys <= 0 {
		c.Keys = 12
	}
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	return c
}

// Generate derives a schedule deterministically from seed.
func Generate(seed int64, cfg Config) []Step {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	steps := make([]Step, 0, cfg.Steps)
	open := make([]bool, cfg.Slots)
	for len(steps) < cfg.Steps {
		slot := rng.Intn(cfg.Slots)
		switch r := rng.Intn(100); {
		case r < 20:
			if !open[slot] {
				open[slot] = true
				steps = append(steps, Step{Kind: StepBegin, Slot: slot})
			}
		case r < 50:
			if open[slot] {
				n := 1 + rng.Intn(cfg.MaxBatch)
				st := Step{Kind: StepStage, Slot: slot, Keys: make([]int64, n)}
				for i := range st.Keys {
					st.Keys[i] = int64(rng.Intn(cfg.Keys))
					if rng.Intn(3) == 0 {
						st.Dels |= 1 << uint(i)
					}
				}
				steps = append(steps, st)
			}
		case r < 65:
			if open[slot] {
				open[slot] = false
				steps = append(steps, Step{Kind: StepCommit, Slot: slot})
			}
		case r < 70:
			if open[slot] {
				open[slot] = false
				steps = append(steps, Step{Kind: StepAbort, Slot: slot})
			}
		case r < 85:
			if open[slot] {
				steps = append(steps, Step{Kind: StepRead, Slot: slot, Mode: ReadMode(rng.Intn(int(readModes)))})
			}
		case r < 95:
			steps = append(steps, Step{Kind: StepReadLatest, Mode: ReadMode(rng.Intn(int(readModes)))})
		default:
			steps = append(steps, Step{Kind: StepGC})
		}
	}
	return steps
}

// oracleVersion is one committed write in the model's history.
type oracleVersion struct {
	ts      uint64
	val     int64
	deleted bool
}

// oracle is the sequential model: full per-key version history, built
// only from commits the engine acknowledged.
type oracle struct {
	ts   uint64
	hist map[int64][]oracleVersion
}

func newOracle() *oracle {
	return &oracle{hist: make(map[int64][]oracleVersion)}
}

// asOf returns the committed k→v state visible at snapshot ts.
func (o *oracle) asOf(ts uint64) map[int64]int64 {
	out := make(map[int64]int64)
	for k, vs := range o.hist {
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].ts <= ts {
				if !vs[i].deleted {
					out[k] = vs[i].val
				}
				break
			}
		}
	}
	return out
}

// liveAt reports whether k is live in the committed state at ts.
func (o *oracle) liveAt(k int64, ts uint64) (int64, bool) {
	vs := o.hist[k]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].ts <= ts {
			return vs[i].val, !vs[i].deleted
		}
	}
	return 0, false
}

// lastWrite returns the timestamp of k's newest committed write (0 if
// never written).
func (o *oracle) lastWrite(k int64) uint64 {
	if vs := o.hist[k]; len(vs) > 0 {
		return vs[len(vs)-1].ts
	}
	return 0
}

// stagedWrite is one write the executor staged through the engine.
type stagedWrite struct {
	key    int64
	val    int64
	insert bool
	delete bool
}

// slotState is one open transaction's model-side mirror.
type slotState struct {
	txn     *core.Txn
	startTS uint64
	writes  []stagedWrite
	byKey   map[int64]*stagedWrite // latest staged fate per key
}

// Divergence is a model/engine mismatch, with the (possibly shrunk)
// schedule that reproduces it.
type Divergence struct {
	Seed     int64
	Step     int
	Detail   string
	Schedule []Step
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("txntest: seed %d diverged at step %d: %s\nschedule:\n%s",
		d.Seed, d.Step, d.Detail, FormatSchedule(d.Schedule))
}

// run executes the schedule for seed against a fresh engine and the
// oracle. On divergence it shrinks the schedule to a minimal failing
// reproduction and returns the Divergence; nil means the schedule
// passed.
func run(seed int64, cfg Config) *Divergence {
	steps := Generate(seed, cfg)
	d := execute(seed, steps)
	if d == nil {
		return nil
	}
	d.Schedule = shrink(seed, steps)
	// Re-run the shrunk schedule to report its (possibly different)
	// failing step and detail.
	if sd := execute(seed, d.Schedule); sd != nil {
		sd.Schedule = d.Schedule
		return sd
	}
	return d // shrink raced into passing (should not happen; report original)
}

// shrink greedily removes steps while the failure persists.
func shrink(seed int64, steps []Step) []Step {
	cur := append([]Step(nil), steps...)
	for {
		removed := false
		for i := 0; i < len(cur); i++ {
			cand := make([]Step, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if execute(seed, cand) != nil {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			return cur
		}
	}
}

// execute runs one schedule against a fresh in-memory engine, mirroring
// every acknowledged effect into the oracle and validating reads and
// commit verdicts. Returns the first divergence, or nil.
func execute(seed int64, steps []Step) *Divergence {
	e, err := core.NewEngine(core.Options{PageSize: 1024, BufferPoolPages: 512})
	if err != nil {
		return &Divergence{Seed: seed, Detail: fmt.Sprintf("NewEngine: %v", err), Schedule: steps}
	}
	defer e.Close()
	tb, err := e.CreateTable("kv", tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.KindInt64},
		tuple.Field{Name: "v", Kind: tuple.KindInt64},
	))
	if err != nil {
		return &Divergence{Seed: seed, Detail: fmt.Sprintf("CreateTable: %v", err), Schedule: steps}
	}
	byK, err := tb.CreateIndex("by_k", []string{"k"})
	if err != nil {
		return &Divergence{Seed: seed, Detail: fmt.Sprintf("CreateIndex: %v", err), Schedule: steps}
	}
	if _, err := tb.CreateIndex("by_v", []string{"v"}, core.NonUnique()); err != nil {
		return &Divergence{Seed: seed, Detail: fmt.Sprintf("CreateIndex by_v: %v", err), Schedule: steps}
	}

	o := newOracle()
	slots := make(map[int]*slotState)
	var vCounter int64
	fail := func(i int, format string, args ...any) *Divergence {
		return &Divergence{Seed: seed, Step: i, Detail: fmt.Sprintf(format, args...), Schedule: steps}
	}

	for i, st := range steps {
		switch st.Kind {
		case StepBegin:
			if slots[st.Slot] != nil {
				continue // shrinking artifact: slot already open
			}
			slots[st.Slot] = &slotState{
				txn:     e.Begin(),
				startTS: o.ts,
				byKey:   make(map[int64]*stagedWrite),
			}

		case StepStage:
			s := slots[st.Slot]
			if s == nil {
				continue
			}
			// Decide each candidate's verb from committed-as-of-start
			// state plus this transaction's own staged fate, mirroring
			// what a well-formed client would do. Keys already staged are
			// skipped (a second write to the same row is a client error
			// the attribution unit tests cover).
			var b core.Batch
			var writes []stagedWrite
			staged := make(map[int64]bool)
			for ki, k := range st.Keys {
				if staged[k] || s.byKey[k] != nil {
					continue
				}
				_, live := o.liveAt(k, s.startTS)
				if live {
					// The target row must still be the committed-latest one
					// for LookupRID to find it; a concurrent commit makes
					// this transaction doomed to conflict anyway, and the
					// rid we stage is then the NEW one — which has
					// born > startTS, so the conflict still fires. Use the
					// engine's own lookup to stay physical.
					rid, found, lerr := byK.LookupRID(tuple.Int64(k))
					if lerr != nil {
						return fail(i, "LookupRID(%d): %v", k, lerr)
					}
					if !found {
						// Deleted after our snapshot: treat as insert; the
						// commit-time verdict check below models the outcome.
						vCounter++
						b.Insert(tuple.Row{tuple.Int64(k), tuple.Int64(vCounter)})
						writes = append(writes, stagedWrite{key: k, val: vCounter, insert: true})
						staged[k] = true
						continue
					}
					if st.Dels&(1<<uint(ki)) != 0 {
						b.Delete(rid)
						writes = append(writes, stagedWrite{key: k, delete: true})
					} else {
						vCounter++
						b.Update(rid, tuple.Row{tuple.Int64(k), tuple.Int64(vCounter)})
						writes = append(writes, stagedWrite{key: k, val: vCounter})
					}
				} else {
					vCounter++
					b.Insert(tuple.Row{tuple.Int64(k), tuple.Int64(vCounter)})
					writes = append(writes, stagedWrite{key: k, val: vCounter, insert: true})
				}
				staged[k] = true
			}
			if len(writes) == 0 {
				continue
			}
			if _, aerr := s.txn.Apply(tb, &b); aerr != nil {
				return fail(i, "well-formed stage rejected: %v", aerr)
			}
			for wi := range writes {
				w := writes[wi]
				s.writes = append(s.writes, w)
				s.byKey[w.key] = &s.writes[len(s.writes)-1]
			}

		case StepCommit:
			s := slots[st.Slot]
			if s == nil {
				continue
			}
			delete(slots, st.Slot)
			cerr := s.txn.Commit()
			// Model verdict: first-committer-wins. A staged update/delete
			// whose key was written after startTS conflicts; a staged
			// insert whose key is live at commit (and not freed by this
			// transaction) is a duplicate.
			conflict, duplicate := false, false
			for _, w := range s.writes {
				if w.insert {
					_, liveNow := o.liveAt(w.key, o.ts)
					if liveNow && !freedBy(s.writes, w.key) {
						duplicate = true
					}
					// An insert staged because the key looked dead-or-absent
					// at start conflicts if someone re-wrote it since? No:
					// inserts carry no target rid; the duplicate check above
					// is the whole rule.
					continue
				}
				if o.lastWrite(w.key) > s.startTS {
					conflict = true
				}
			}
			switch {
			case conflict:
				if !errors.Is(cerr, core.ErrTxnConflict) {
					return fail(i, "commit = %v, model says conflict (start %d)", cerr, s.startTS)
				}
			case duplicate:
				if cerr == nil || !strings.Contains(cerr.Error(), "duplicate key") {
					return fail(i, "commit = %v, model says duplicate", cerr)
				}
			default:
				if cerr != nil {
					return fail(i, "commit failed (%v), model says success (start %d)", cerr, s.startTS)
				}
				o.ts++
				for _, w := range s.writes {
					o.hist[w.key] = append(o.hist[w.key], oracleVersion{ts: o.ts, val: w.val, deleted: w.delete})
				}
			}

		case StepAbort:
			if s := slots[st.Slot]; s != nil {
				s.txn.Abort()
				delete(slots, st.Slot)
			}

		case StepRead:
			s := slots[st.Slot]
			if s == nil {
				continue
			}
			got, rerr := scan(s.txn, tb, st.Mode)
			if rerr != nil {
				return fail(i, "snapshot read (%s): %v", st.Mode, rerr)
			}
			want := o.asOf(s.startTS)
			if diff := diffStates(got, want); diff != "" {
				return fail(i, "snapshot read (%s) at ts %d diverged: %s", st.Mode, s.startTS, diff)
			}

		case StepReadLatest:
			got, rerr := scan(nil, tb, st.Mode)
			if rerr != nil {
				return fail(i, "latest read (%s): %v", st.Mode, rerr)
			}
			want := o.asOf(o.ts)
			if diff := diffStates(got, want); diff != "" {
				return fail(i, "latest read (%s) diverged: %s", st.Mode, diff)
			}

		case StepGC:
			e.RunGC()
		}
	}

	// Epilogue: abort leftovers, GC everything, and verify the final
	// state one last time on every read path.
	for _, s := range slots {
		s.txn.Abort()
	}
	e.RunGC()
	want := o.asOf(o.ts)
	for m := ReadMode(0); m < readModes; m++ {
		got, rerr := scan(nil, tb, m)
		if rerr != nil {
			return fail(len(steps), "final read (%s): %v", m, rerr)
		}
		if diff := diffStates(got, want); diff != "" {
			return fail(len(steps), "final read (%s) after GC diverged: %s", m, diff)
		}
	}
	return nil
}

// freedBy reports whether the write set deletes key before (without a
// later re-insert making it the live claim — the staged slice is in
// stage order, so the last fate wins).
func freedBy(writes []stagedWrite, key int64) bool {
	for _, w := range writes {
		if w.key == key && w.delete {
			return true
		}
	}
	return false
}

// scan reads the full table state through one read path: via txn (as-of
// its snapshot) when txn is non-nil, latest otherwise.
func scan(txn *core.Txn, tb *core.Table, mode ReadMode) (map[int64]int64, error) {
	var opts []core.QueryOption
	switch mode {
	case ReadUnique:
		opts = append(opts, core.WithIndex("by_k"))
	case ReadNonUnique:
		opts = append(opts, core.WithIndex("by_v"))
	case ReadParallel:
		opts = append(opts, core.WithIndex("by_k"), core.WithParallel(2))
	}
	var (
		cur *core.Cursor
		err error
	)
	if txn != nil {
		cur, err = txn.Query(tb, opts...)
	} else {
		cur, err = tb.Query(opts...)
	}
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make(map[int64]int64)
	for cur.Next() {
		r := cur.Row()
		k, v := r[0].Int, r[1].Int
		if old, dup := out[k]; dup {
			return nil, fmt.Errorf("key %d served twice (%d and %d)", k, old, v)
		}
		out[k] = v
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// diffStates describes the difference between two k→v states ("" when
// equal), listing keys deterministically.
func diffStates(got, want map[int64]int64) string {
	var problems []string
	keys := make(map[int64]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	ordered := make([]int64, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, k := range ordered {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case gok && !wok:
			problems = append(problems, fmt.Sprintf("key %d: engine has %d, model has nothing", k, g))
		case !gok && wok:
			problems = append(problems, fmt.Sprintf("key %d: engine missing, model has %d", k, w))
		case g != w:
			problems = append(problems, fmt.Sprintf("key %d: engine %d, model %d", k, g, w))
		}
	}
	return strings.Join(problems, "; ")
}
