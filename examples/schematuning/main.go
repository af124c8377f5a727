// Schematuning: Section 4.1. Analyze a table whose declared types
// over-allocate, print the advisor's findings, and pack rows at their
// true widths.
package main

import (
	"fmt"
	"log"
	"os"

	nblb "repro"
	"repro/internal/tuple"
	"repro/internal/wiki"
)

func main() {
	db, err := nblb.Open(nblb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// The CarTel telemetry table: BIGINTs holding tiny domains and a
	// CHAR(14) string timestamp.
	table, err := db.CreateTable("cartel", wiki.CarTelSchema())
	if err != nil {
		log.Fatal(err)
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: 10, RevisionsPerPage: 1, Alpha: 0.5, Seed: 1})
	const rows = 20000
	for i := 0; i < rows; i++ {
		if _, err := table.Insert(gen.CarTelRow(i)); err != nil {
			log.Fatal(err)
		}
	}

	// Treat the declared schema as a hint: profile actual values and
	// recommend minimal physical encodings.
	report, err := nblb.AnalyzeTable(table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table %q: %d rows, %.1f%% of the declared footprint is waste\n\n",
		report.Name, report.Rows, report.WastePct())
	for _, c := range report.Columns {
		fmt.Printf("  %-10s %-14s %6.1f → %5.1f bits  %s\n",
			c.Rec.Field.Name, c.Rec.Enc, c.DeclaredBits, c.OptimalBits, c.Rec.Note)
	}

	// Realize the recommendations: pack a sample and verify losslessness.
	recs := make([]nblb.Recommendation, len(report.Columns))
	for i, c := range report.Columns {
		recs[i] = c.Rec
	}
	codec, err := nblb.NewPackedCodec(table.Schema(), recs)
	if err != nil {
		log.Fatal(err)
	}
	var sample []nblb.Row
	cur, err := table.Query(nblb.WithLimit(1000))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range cur.All() {
		sample = append(sample, row.Clone())
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	packed, err := codec.EncodeRows(sample)
	if err != nil {
		log.Fatal(err)
	}
	back, err := codec.DecodeRows(packed, len(sample))
	if err != nil {
		log.Fatal(err)
	}
	for i := range sample {
		if !sample[i].Equal(back[i]) {
			fmt.Fprintln(os.Stderr, "round-trip mismatch!")
			os.Exit(1)
		}
	}
	// Compare against the declared-width codec.
	var declared int
	for _, r := range sample {
		n, err := tuple.DeclaredSize(table.Schema(), r)
		if err != nil {
			log.Fatal(err)
		}
		declared += n
	}
	fmt.Printf("\npacked %d rows: %d bytes vs %d declared (%.1fx denser), losslessly\n",
		len(sample), len(packed), declared, float64(declared)/float64(len(packed)))
}
