package analysis

// This file is the machine-readable form of ARCHITECTURE.md's "Locks,
// latches, and their order" table. The lockorder analyzer checks
// acquisition edges against LockRules; the walseam analyzer checks
// wal.TestPoint names against CrashMatrixPoints. When the prose table
// changes, this file must change with it (ARCHITECTURE.md's "Enforced
// invariants" column points back here).

// LockRule is one directed ordering edge: Outer may be held while
// acquiring Inner; the inversion — acquiring Outer while Inner is held —
// is a deadlock risk and is what the analyzer reports. Rule names the
// ARCHITECTURE.md ordering rule the edge comes from.
type LockRule struct {
	Outer, Inner string
	Rule         string
}

// LockRules are the documented ordering edges. Transitive closure is
// taken by the analyzer, so chains only need their adjacent pairs.
var LockRules = []LockRule{
	// Canonical write/commit chain (rules 7 and the PR 9 txn addendum):
	// txnMu → commitGate → e.mu → t.mu → vers.mu, wal mutex innermost.
	{"txnMu", "commitGate", "txn commit order (engine.go)"},
	{"txnMu", "snapMu", "txn commit order (engine.go)"},
	{"commitGate", "engine-mu", "rule 7"},
	{"engine-mu", "table-mu", "rule 7"},
	{"table-mu", "version-store", "txn commit order (engine.go)"},
	{"commitGate", "wal-mu", "rule 7 (wal mutex is a leaf)"},
	{"commitGate", "wal-commit-mu", "rule 7 (group commit under the gate)"},
	{"wal-commit-mu", "wal-mu", "group-commit leader fsyncs under the log mutex"},
	// ckptMu nests OUTSIDE the gate: checkpoints take it first.
	{"ckptMu", "commitGate", "rule 7 (two checkpoints serialize before blocking writers)"},
	// Heap insert path (rules 1–2).
	{"heap-shard", "frame-latch", "rule 1"},
	{"heap-shard", "heap-meta", "rule 2"},
	// Descents fetch child pages (buffer shard mutex) while holding
	// frame latches; the reverse — waiting on a latch under the shard
	// mutex — is rule 4's forbidden edge.
	{"frame-latch", "buffer-shard", "rule 4"},
}

// SelfUnsafe lists locks that must never be acquired while an instance
// of the same lock is already held: rule 3 (never two heap shard
// mutexes) and the buffer pool's cross-shard steal contract. The frame
// latch is deliberately absent — latch crabbing holds several at once
// under the root→leaf, left→right protocol (rule 6), which static
// analysis cannot order by instance.
var SelfUnsafe = map[string]string{
	"heap-shard":   "rule 3: never two heap shard mutexes at once",
	"buffer-shard": "steal() must drop its own shard before locking a sibling",
	"txnMu":        "txnMu is non-reentrant",
	"commitGate":   "a shared re-acquire deadlocks behind a pending exclusive waiter",
}

// Leaves lists locks under which nothing at all may be acquired: any
// acquisition, direct or through a callee, while one is held is
// reported. (The wal mutexes are leaves of the commit chain by their
// LockRules edges; a lock belongs here when it sits outside every
// chain, so no edge could express it.)
var Leaves = map[string]string{
	"coalescer-mu": "rule 8: the coalescer mutex is a leaf, never held across Table.Apply",
}

// CrashMatrixPoints are the wal.TestPoint names with a corresponding
// crash-matrix case (core/crash_test.go, core/crash_txn_test.go). The
// walseam analyzer rejects TestPoint calls whose name constant is not
// listed: a new crash seam needs a new matrix case FIRST, then an entry
// here naming the test that kills at it.
var CrashMatrixPoints = map[string]string{
	"wal:append":                 "TestCrashMatrix (mid-append)",
	"wal:append-partial":         "TestCrashMatrix (torn frame)",
	"wal:synced":                 "TestCrashMatrix (post-append/pre-ack)",
	"wal:truncate-before-rename": "TestCrashMatrix",
	"wal:truncate-after-rename":  "TestCrashMatrix",
	"ckpt:begin":                 "TestCrashMatrix",
	"ckpt:flushed":               "TestCrashMatrix",
	"ckpt:manifest":              "TestCrashMatrix + TestCrashTxnMatrix",
	"ckpt:truncated":             "TestCrashMatrix + TestCrashTxnMatrix",
	"txn:appended":               "TestCrashTxnMatrix (mid-commit)",
	"gc:unlinked":                "TestCrashTxnMatrix (mid-GC)",
	"gc:recovery":                "TestCrashGCRecovery (killed mid-recovery, before the sweep)",
}

// lockRank holds the transitive closure of LockRules: closure[a][b]
// means a may be held while acquiring b.
var lockClosure = buildClosure()

func buildClosure() map[string]map[string]string {
	c := map[string]map[string]string{}
	add := func(a, b, why string) {
		if c[a] == nil {
			c[a] = map[string]string{}
		}
		if _, ok := c[a][b]; !ok {
			c[a][b] = why
		}
	}
	for _, r := range LockRules {
		add(r.Outer, r.Inner, r.Rule)
	}
	// Floyd–Warshall style closure over the small rule graph.
	for changed := true; changed; {
		changed = false
		for a, outs := range c {
			for b, whyAB := range outs {
				for d, whyBD := range c[b] {
					if _, ok := c[a][d]; !ok && a != d {
						add(a, d, whyAB+" + "+whyBD)
						changed = true
					}
				}
			}
		}
	}
	return c
}

// OrderAllowed reports whether holding `held` while acquiring `acq` is
// a registered order (directly or transitively).
func OrderAllowed(held, acq string) bool {
	_, ok := lockClosure[held][acq]
	return ok
}

// OrderViolation reports whether acquiring `acq` while `held` is held
// inverts a registered rule, and if so which rule.
func OrderViolation(held, acq string) (string, bool) {
	if why, leaf := Leaves[held]; leaf {
		return why, true
	}
	if held == acq {
		why, bad := SelfUnsafe[held]
		return why, bad
	}
	if OrderAllowed(held, acq) {
		return "", false
	}
	if why, ok := lockClosure[acq][held]; ok {
		return why, true
	}
	return "", false
}
