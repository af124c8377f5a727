// Schematuning: Section 4.1. Analyze a table whose declared types
// over-allocate, print the advisor's findings, and store rows in the
// record layout they describe.
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

	// Realize the recommendations: store a sample in the record layout
	// they describe and verify losslessness.
	packed, err := nblb.PackedSchema(table.Schema(), report)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := table.Query(nblb.WithLimit(1000))
	if err != nil {
		log.Fatal(err)
	}
	var (
		rec              []byte
		stored, declared int
		n                int
	)
	for _, row := range cur.All() {
		if rec, err = tuple.Encode(packed, row, rec[:0]); err != nil {
			log.Fatal(err)
		}
		back, _, err := tuple.Decode(packed, rec)
		if err != nil || !row.Equal(back) {
			fmt.Fprintln(os.Stderr, "round-trip mismatch!", err)
			os.Exit(1)
		}
		d, err := tuple.DeclaredSize(table.Schema(), row)
		if err != nil {
			log.Fatal(err)
		}
		stored, declared, n = stored+len(rec), declared+d, n+1
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npacked %d rows: %d bytes vs %d declared (%.1fx denser), losslessly\n",
		n, stored, declared, float64(declared)/float64(stored))
}
