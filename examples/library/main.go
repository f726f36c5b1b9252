// Library: the full Figure 1 scenario of the paper — CSLibrary imports
// Bookseller — exercising every worked example: conformation of
// constraints to virtual classes and converted scales (§4), instance-
// based merging with decision functions (§2.3), the emergent
// RefereedProceedings intersection class (Figure 2), derived constraints
// from intraobject conditions (§3), equality-derived global constraints
// (§5.2.1), key-constraint propagation (§5.2.2), and the query/update
// uses of the result (§1).
//
// Run:  go run ./examples/library
package main

import (
	"context"
	"fmt"
	"log"

	"interopdb"
)

func main() {
	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{})
	res, err := interopdb.Integrate(
		interopdb.Figure1Library(), interopdb.Figure1Bookseller(),
		interopdb.Figure1Integration(), local, remote, 1)
	if err != nil {
		log.Fatal(err)
	}

	// The full stage-by-stage report (Figure 3's artifacts).
	fmt.Println(res.Report())

	// For querying and validation, apply the engine's suggested repairs
	// first (examples/repair walks through them): the original r5 leaves
	// an unresolved strict-similarity conflict, so the engine withholds
	// the Proceedings constraints from the global view until the designer
	// repairs the specification — the paper's role 2 in action. The
	// instances are scaled up (63 Proceedings): on Figure 1's three the
	// planner's cost gate rightly judges the solver dearer than the scan
	// it would save, and skips the constraint phase.
	local2, remote2 := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 30})
	res2, err := interopdb.Integrate(
		interopdb.Figure1Library(), interopdb.Figure1Bookseller(),
		interopdb.Figure1IntegrationRepaired(), local2, remote2, 1)
	if err != nil {
		log.Fatal(err)
	}
	engine := interopdb.NewQueryEngine(res2)

	fmt.Println("== Query: refereed proceedings with rating >= 7 ==")
	rows, stats, err := engine.Run(interopdb.Query{
		Class:  "RefereedPubl_Proceedings",
		Where:  interopdb.MustParseExpr("rating >= 7"),
		Select: []string{"title", "rating"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  %v (rating %v)\n", r["title"], r["rating"])
	}
	fmt.Printf("  [scanned %d objects]\n\n", stats.Scanned)

	fmt.Println("== Query optimisation: provably-empty subquery ==")
	q := interopdb.Query{
		Class: "Proceedings",
		Where: interopdb.MustParseExpr("publisher.name = 'IEEE' and ref? = false"),
	}
	_, stats, err = engine.Run(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  with derived constraints: pruned=%v gated=%v scanned=%d\n", stats.PrunedEmpty, stats.ConstraintGated, stats.Scanned)
	if !stats.PrunedEmpty {
		log.Fatal("the derived constraints did not prune the provably-empty query")
	}
	engine.UseConstraints = false
	_, stats, err = engine.Run(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  without constraints:      pruned=%v gated=%v scanned=%d\n\n", stats.PrunedEmpty, stats.ConstraintGated, stats.Scanned)
	engine.UseConstraints = true

	fmt.Println("== Update validation: doomed insert rejected before shipping ==")
	bad := map[string]interopdb.Value{
		"title": interopdb.Str("IEEE Workshop, unrefereed"), "isbn": interopdb.Str("bad-1"),
		"publisher": interopdb.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": interopdb.Real(30), "libprice": interopdb.Real(25),
		"ref?": interopdb.Bool(false), "rating": interopdb.Int(5),
	}
	rejs, _, err := engine.Validate(context.Background(), []interopdb.Mutation{
		{Kind: interopdb.MutInsert, Class: "Proceedings", Attrs: bad},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, rej := range rejs {
		fmt.Printf("  rejected: %v\n", rej)
	}
}
