package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The golden suite, in the style of x/tools' analysistest: each fixture
// under testdata/src/<name> is a little module of one or more packages,
// loaded in declared order (dependencies first), and every diagnostic
// the suite produces must be matched by a `// want "regexp"` comment on
// the flagged line — no more, no less.

type fixtureSpec struct {
	name      string   // directory under testdata/src
	pkgs      []string // sub-packages in dependency order; nil = the dir itself
	analyzers string   // ByName selector; "" = all three
}

var fixtures = []fixtureSpec{
	{name: "lockorder_basic"},
	{name: "lockorder_pr9"},
	{name: "lockorder_coalescer"},
	{name: "pinleak_basic"},
	{name: "pinleak_latch"},
	{name: "walseam_gate", pkgs: []string{"wal", "a"}},
}

func TestAnalyzersGolden(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			runFixture(t, root, fx)
		})
	}
}

func runFixture(t *testing.T, root string, fx fixtureSpec) {
	analyzers, err := ByName(fx.analyzers)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root) // module root works for stdlib export data
	base := filepath.Join(root, "testdata", "src", fx.name)
	dirs := fx.pkgs
	if dirs == nil {
		dirs = []string{""}
	}
	var pkgs []*LoadedPackage
	for _, sub := range dirs {
		dir := filepath.Join(base, sub)
		importPath := fx.name
		if sub != "" {
			importPath = fx.name + "/" + sub
		}
		files, err := goFilesIn(dir)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := loader.CheckFiles(importPath, dir, files)
		if err != nil {
			t.Fatalf("typecheck %s: %v", importPath, err)
		}
		pkgs = append(pkgs, lp)
	}
	world := NewWorld(loader.Fset)
	diags, err := RunPackages(world, pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	checkExpectations(t, base, diags)
}

func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// wantRE matches `// want "re"` with an optional line offset: a
// `// want+1 "re"` on the line BEFORE a nolint comment expects the
// diagnostic on the nolint line itself (putting the want comment there
// would read as the nolint reason).
var wantRE = regexp.MustCompile(`// want([+-][0-9]+)? (.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// collectWants scans every fixture file for `// want "re" ["re"...]`
// markers.
func collectWants(t *testing.T, base string) []*expectation {
	var wants []*expectation
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			off := 0
			if m[1] != "" {
				off, _ = strconv.Atoi(m[1])
			}
			args := wantArgRE.FindAllStringSubmatch(m[2], -1)
			if len(args) == 0 {
				t.Errorf("%s:%d: malformed want comment (no quoted regexp)", path, i+1)
				continue
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", path, i+1, a[1], err)
					continue
				}
				wants = append(wants, &expectation{file: path, line: i + 1 + off, re: re, raw: a[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func checkExpectations(t *testing.T, base string, diags []Diagnostic) {
	wants := collectWants(t, base)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
