package analysis

// exportAllow lists the exported names under internal/ that deadexport
// must not flag although nothing in the repository uses them outside
// their own tests, each with the reason it stays. Keys are
// "pkgpath.Name" or "pkgpath.Type.Method".
var exportAllow = map[string]string{
	"repro/internal/core.Engine.DropTable":         "engine API: library users reach it through the nblb.Engine alias",
	"repro/internal/core.Engine.Restart":           "engine API: library users reach it through the nblb.Engine alias",
	"repro/internal/core.Engine.Clock":             "engine API: library users reach it through the nblb.Engine alias",
	"repro/internal/core.Table.Indexes":            "table API: library users reach it through the nblb.Table alias",
	"repro/internal/core.Cursor.SegmentStats":      "cursor API: library users reach it through the nblb.Cursor alias",
	"repro/internal/core.TestingFailCommitAfter":   "test hook: arms a commit failure for the crash and rollback tests",
	"repro/internal/partition.HotCold.Hot":         "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.Cold":        "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.Forwarding":  "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.ApplyHot":    "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.ApplyCold":   "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.Demote":      "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.HotCold.Promote":     "hot/cold API: library users reach it through the nblb.HotCold alias",
	"repro/internal/partition.Cursor.Hot":          "hot/cold API: library users reach it through the nblb.HotColdCursor alias",
	"repro/internal/partition.Forwarding.Resolve":  "hot/cold API: library users reach it through the nblb.Forwarding alias",
	"repro/internal/partition.AccessTracker.Total": "hot/cold API: library users reach it through the nblb.AccessTracker alias",
}
