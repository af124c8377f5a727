// Hotcold: Section 3.1 end to end. A revision-style table where 99.9%
// of traffic hits 5% of tuples gets clustered, then split into hot and
// cold partitions, and the buffer pool misses collapse.
package main

import (
	"fmt"
	"log"

	nblb "repro"
	"repro/internal/wiki"
)

func main() {
	// A deliberately tight buffer pool: the full table and index do not
	// fit, mirroring the paper's 27.1 GB index vs available RAM.
	db, err := nblb.Open(nblb.Options{
		PageSize:        4096,
		BufferPoolPages: 100,
		CountIO:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	table, err := db.CreateTable("revision", wiki.RevisionSchema(), nblb.WithAppendOnlyHeap())
	if err != nil {
		log.Fatal(err)
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: 1000, RevisionsPerPage: 15, Alpha: 0.5, Seed: 1})
	revs, latest := gen.Revisions()
	rids := make([]nblb.RID, len(revs))
	for i, r := range revs {
		rid, err := table.Insert(r.Row)
		if err != nil {
			log.Fatal(err)
		}
		rids[i] = rid
	}
	byRev, err := table.CreateIndex("rev_id", []string{"rev_id"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revision table: %d rows over %d heap pages; hot tuples: %d (%.1f%%)\n",
		len(revs), table.Heap().NumPages(), len(latest),
		100*float64(len(latest))/float64(len(revs)))

	trace := gen.RevisionTrace(20000, 0.999, len(revs), latest)
	counter := db.IOCounter()

	run := func(label string, lookup func(i int) error) {
		counter.ResetCounts()
		for _, idx := range trace {
			if err := lookup(idx); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-22s %.3f disk reads/query\n", label, float64(counter.Reads())/float64(len(trace)))
	}

	keyOf := func(idx int) nblb.Value { return revs[idx].Row[0] }
	run("unclustered:", func(idx int) error {
		_, _, err := byRev.Lookup(nil, keyOf(idx))
		return err
	})

	// Cluster all hot tuples to the table's tail (delete + append).
	hot := make([]nblb.RID, 0, len(latest))
	for _, idx := range latest {
		hot = append(hot, rids[idx])
	}
	moved, err := nblb.Cluster(table, hot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered %d hot tuples (moved RIDs: %d)\n", len(hot), len(moved))
	run("clustered:", func(idx int) error {
		_, _, err := byRev.Lookup(nil, keyOf(idx))
		return err
	})

	// Hot/cold partitions: the hot index alone fits in RAM.
	hc, err := nblb.NewHotCold(nblb.HotColdConfig{
		Engine: db, Name: "revision_p", Schema: wiki.RevisionSchema(),
		KeyFields: []string{"rev_id"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range revs {
		if r.Latest {
			_, err = hc.InsertHot(r.Row)
		} else {
			_, err = hc.InsertCold(r.Row)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	st, err := hc.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned: hot index %d KB vs cold index %d KB (%.1fx smaller)\n",
		st.HotIndexBytes/1024, st.ColdIndexBytes/1024,
		float64(st.ColdIndexBytes)/float64(st.HotIndexBytes))
	run("partitioned:", func(idx int) error {
		_, _, err := hc.Lookup(keyOf(idx))
		return err
	})
}
