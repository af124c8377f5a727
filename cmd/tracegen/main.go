// Command tracegen emits synthetic Wikipedia workload traces as CSV on
// stdout, for replay against other systems or for inspection.
//
// Usage:
//
//	tracegen -kind page -n 100000 -pages 20000 -alpha 0.5
//	tracegen -kind revision -n 100000 -pages 2000 -revs 20 -hot 0.999
//
// Page traces emit one (namespace, title) per line — the name_title
// lookup workload of Figure 2. Revision traces emit one rev_id per line
// with 99.9% of lines hitting the latest revision of a zipf-popular
// article — the Section 3.1 workload of Figure 3.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/wiki"
)

func main() {
	kind := flag.String("kind", "page", "trace kind: page or revision")
	n := flag.Int("n", 100000, "number of trace entries")
	pages := flag.Int("pages", 20000, "number of articles")
	revsPer := flag.Int("revs", 20, "mean revisions per article (revision traces)")
	alpha := flag.Float64("alpha", 0.5, "zipf skew of article popularity")
	hot := flag.Float64("hot", 0.999, "fraction of revision accesses hitting latest revisions")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	gen := wiki.NewGenerator(wiki.Config{
		Pages:            *pages,
		RevisionsPerPage: *revsPer,
		Alpha:            *alpha,
		Seed:             *seed,
	})
	switch *kind {
	case "page":
		fmt.Fprintln(w, "namespace,title")
		for _, p := range gen.PageLookupTrace(*n) {
			fmt.Fprintf(w, "%d,%s\n", wiki.NamespaceOf(p), wiki.PageTitle(p))
		}
	case "revision":
		revs, latest := gen.Revisions()
		fmt.Fprintln(w, "rev_id,is_hot")
		for _, idx := range gen.RevisionTrace(*n, *hot, len(revs), latest) {
			hotFlag := 0
			if revs[idx].Latest {
				hotFlag = 1
			}
			fmt.Fprintf(w, "%d,%d\n", revs[idx].Row[0].Int, hotFlag)
		}
	default:
		log.Fatalf("tracegen: unknown kind %q", *kind)
	}
}
