package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wiki"
)

// Shape names the wiki table a Fixture loads.
type Shape string

const (
	// PageShape is the page table: one wiki page row per article.
	PageShape Shape = "page"
	// RevisionShape is the revision table on an append-only heap: every
	// article's history, interleaved as MediaWiki writes it.
	RevisionShape Shape = "revision"
)

// FixtureConfig is what the paper's experiments vary about the engine
// and the generated table they measure.
type FixtureConfig struct {
	Shape Shape
	// Pages is the articles generated: the page table's rows, or the
	// revision table's histories, RevisionsPerPage long on average.
	Pages, RevisionsPerPage int
	Seed                    int64
	PageSize, PoolPages     int
	CountIO                 bool // count storage reads (core.Options.CountIO)
}

// String is the fixture line an experiment prints under its title.
func (c FixtureConfig) String() string {
	table := fmt.Sprintf("page table, %d rows", c.Pages)
	if c.Shape == RevisionShape {
		table = fmt.Sprintf("revision table, %d articles × ~%d revisions", c.Pages, c.RevisionsPerPage)
	}
	s := fmt.Sprintf("fixture: %s, seed %d; %d B pages, pool of %d pages", table, c.Seed, c.PageSize, c.PoolPages)
	if c.CountIO {
		s += ", I/O counted"
	}
	return s
}

// open starts an in-memory engine with c's page size and pool.
func (c FixtureConfig) open() (*core.Engine, error) {
	return core.NewEngine(core.Options{PageSize: c.PageSize, BufferPoolPages: c.PoolPages, CountIO: c.CountIO})
}

// generate makes c's rows from a generator seeded by c (zipf 0.5, as
// every paper experiment draws its articles).
func (c FixtureConfig) generate() (gen *wiki.Generator, rows []tuple.Row, latest []int) {
	gen = wiki.NewGenerator(wiki.Config{
		Pages: c.Pages, RevisionsPerPage: max(c.RevisionsPerPage, 1), Alpha: 0.5, Seed: c.Seed,
	})
	rows, latest = rowsOf(gen, c.Shape, c.Pages)
	return gen, rows, latest
}

// rowsOf draws shape's rows from gen: one page row per article (its
// page_latest is its index), or every revision with the index of each
// article's newest one.
func rowsOf(gen *wiki.Generator, shape Shape, pages int) (rows []tuple.Row, latest []int) {
	if shape == RevisionShape {
		revs, latest := gen.Revisions()
		rows = make([]tuple.Row, len(revs))
		for i, r := range revs {
			rows[i] = r.Row
		}
		return rows, latest
	}
	rows = make([]tuple.Row, pages)
	for i := range rows {
		rows[i] = gen.PageRow(i, int64(i))
	}
	return rows, nil
}

// Fixture is an engine and the generated wiki table loaded into it, the
// setup every paper experiment measures on.
type Fixture struct {
	Config FixtureConfig
	Engine *core.Engine
	Table  *core.Table
	// Gen drew Rows; a table drawn after them (Add) continues its stream.
	Gen  *wiki.Generator
	Rows []tuple.Row
	RIDs []storage.RID // RIDs[i] is where Rows[i] was loaded
	// Latest[p] is the index in Rows of article p's newest revision
	// (RevisionShape only).
	Latest []int
	opts   []core.TableOption
}

// NewFixture generates cfg's rows and loads them, one Insert each, into
// a table named after the shape in a new engine, opts configuring the
// table beyond its shape. The caller closes f.Engine (closeEngine).
func NewFixture(cfg FixtureConfig, opts ...core.TableOption) (*Fixture, error) {
	f := &Fixture{Config: cfg, opts: opts}
	f.Gen, f.Rows, f.Latest = cfg.generate()
	return f.Reload()
}

// Reload loads f's rows into a new engine as NewFixture loaded them, so
// a leg that moves rows (fig3's clustering) starts from the generated
// layout without generating again.
func (f *Fixture) Reload() (*Fixture, error) {
	e, err := f.Config.open()
	if err != nil {
		return nil, err
	}
	g := *f
	g.Engine = e
	if err := g.load(); err != nil {
		_ = e.Close()
		return nil, err
	}
	return &g, nil
}

// Add draws a table of shape from f's generator, continuing its stream
// after f's rows, and loads it into f's engine. The two fixtures share
// one engine: close it once.
func (f *Fixture) Add(shape Shape, opts ...core.TableOption) (*Fixture, error) {
	g := &Fixture{Config: f.Config, Engine: f.Engine, Gen: f.Gen, opts: opts}
	g.Config.Shape = shape
	g.Rows, g.Latest = rowsOf(f.Gen, shape, f.Config.Pages)
	return g, g.load()
}

// load creates the shape's table and inserts the rows in order.
func (f *Fixture) load() (err error) {
	schema, opts := wiki.PageSchema(), f.opts
	if f.Config.Shape == RevisionShape {
		schema, opts = wiki.RevisionSchema(), append([]core.TableOption{core.WithAppendOnlyHeap()}, opts...)
	}
	if f.Table, err = f.Engine.CreateTable(string(f.Config.Shape), schema, opts...); err != nil {
		return err
	}
	f.RIDs = make([]storage.RID, len(f.Rows))
	for i, row := range f.Rows {
		if f.RIDs[i], err = f.Table.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

// closeEngine folds an engine Close failure into *errp: a benchmark
// whose teardown cannot flush its state should fail loudly, not report
// numbers from a half-written store. An earlier error keeps precedence.
func closeEngine(e *core.Engine, errp *error) {
	if cerr := e.Close(); cerr != nil && *errp == nil {
		*errp = fmt.Errorf("experiments: closing engine: %w", cerr)
	}
}
