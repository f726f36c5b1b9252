// Federation: N-way interoperation with runtime Attach/Detach.
//
// A library/bookseller federation is built member by member, served,
// and then grown: a university archive joins at runtime. The attach
// integrates ONLY the new pair (CSLibrary+UnivArchive) and grafts it
// onto the live view — queries keep running throughout, classes the
// archive does not touch keep their cached plans, and one snapshot
// publication flips readers from the old membership to the new.
// Finally a mixed batch is routed across all three member stores and
// the archive detaches again, retracting its constraints by
// provenance.
//
// Run:  go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"interopdb"
)

func main() {
	// Component stores: the scaled Figure 1 catalog plus the archive.
	libStore, bsStore := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 300})
	archStore := interopdb.ArchiveStore(interopdb.FixtureOptions{Scale: 300})

	// Member by member: seed, then the founding pair (identical to the
	// pairwise Integrate), then the archive — incrementally.
	fed := interopdb.NewFederation(1, interopdb.PipelineOptions{})
	must(fed.Attach(interopdb.Figure1Library(), libStore, nil))

	t0 := time.Now()
	must(fed.Attach(interopdb.Figure1Bookseller(), bsStore, interopdb.Figure1IntegrationRepaired()))
	fmt.Printf("founding pair integrated in %v (%d reasoning computations)\n",
		time.Since(t0).Round(time.Millisecond), fed.LastAttachReasoning().Misses)

	e := fed.Engine()
	queries := []interopdb.Query{
		{Class: "Publisher", Where: interopdb.MustParseExpr("location = 'Berlin'")},
		{Class: "Monograph", Where: interopdb.MustParseExpr("shopprice < 95")},
		{Class: "Proceedings", Where: interopdb.MustParseExpr("rating >= 7")},
	}
	for _, q := range queries { // warm the plan cache
		if _, _, err := e.Run(q); err != nil {
			log.Fatal(err)
		}
	}

	// The archive joins at runtime. Only the CSLibrary+UnivArchive pair
	// is integrated; the graft publishes ONE snapshot.
	pubsBefore := e.CacheStats().Publishes
	t0 = time.Now()
	must(fed.Attach(interopdb.Figure1UnivArchive(), archStore, interopdb.Figure1ArchiveIntegration()))
	fmt.Printf("archive attached in %v (%d reasoning computations, %d snapshot publication(s))\n",
		time.Since(t0).Round(time.Millisecond),
		fed.LastAttachReasoning().Misses, e.CacheStats().Publishes-pubsBefore)
	fmt.Printf("members: %v\n\n", fed.Members())

	fmt.Println("== plan survival across the membership change ==")
	for _, q := range queries {
		_, stats, err := e.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %-24v plan-cached=%v\n", q.Class, q.Where, stats.PlanCached)
	}

	// Cross-pair serving: the merged VLDB record now spans three
	// stores, and well-scored archive records share the ScholarlyLike
	// virtual superclass with the library's scientific publications.
	rows, _, err := e.Run(interopdb.Query{Class: "Record", Where: interopdb.MustParseExpr("isbn = 'vldb96'")})
	must(err)
	fmt.Printf("\nRecord[isbn=vldb96]: %d row(s) — one object across three members\n", len(rows))
	rows, _, err = e.Run(interopdb.Query{Class: "ScholarlyLike"})
	must(err)
	fmt.Printf("ScholarlyLike (virtual superclass across pairs): %d members\n\n", len(rows))

	// One mixed batch, routed per member: the insert lands in the
	// archive, the delete too — each member commits ONE deferred-
	// validation transaction.
	ops := []interopdb.Mutation{
		{Kind: interopdb.MutInsert, Class: "Record", Attrs: map[string]interopdb.Value{
			"title": interopdb.Str("Newly Archived Volume"), "isbn": interopdb.Str("example-new"),
			"keeper": interopdb.Str("Annex"), "price": interopdb.Real(18), "pages": interopdb.Int(250),
		}},
	}
	ctx := context.Background()
	if rejs, _, err := e.Validate(ctx, ops); err != nil || len(rejs) > 0 {
		log.Fatalf("validation: %v %v", rejs, err)
	}
	must(e.Ship(ctx, ops))
	fmt.Println("routed batch committed (insert → UnivArchive's local manager)")

	// Constraint provenance in the federated report.
	fmt.Println()
	fmt.Println(fed.Report())

	// The archive leaves: its constraints are retracted by provenance,
	// its objects leave the view (the store itself is untouched), and
	// untouched classes keep their plans.
	must(fed.Detach("UnivArchive"))
	fmt.Printf("detached UnivArchive: members %v, archive store still holds %d records\n",
		fed.Members(), archStore.Count())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
