package interopdb

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the whole public facade the way the
// README's quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	lib := MustParseDatabase(FigureOneCSLibrary)
	bs := MustParseDatabase(FigureOneBookseller)
	is := MustParseIntegration(FigureOneIntegration)
	local, remote := Figure1Stores(FixtureOptions{})
	res, err := Integrate(lib, bs, is, local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{
		"publisher.name = 'ACM' implies rating >= 5",
		"RefereedPubl_Proceedings",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPublicAPIQueryEngine(t *testing.T) {
	// At Scale 30 the extent is large enough for the cost gate to let
	// the constraint phase run.
	local, remote := Figure1Stores(FixtureOptions{Scale: 30})
	res, err := Integrate(Figure1Library(), Figure1Bookseller(), Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewQueryEngine(res)
	rows, stats, err := e.Run(Query{
		Class: "Proceedings",
		Where: MustParseExpr("publisher.name = 'IEEE' and ref? = false"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PrunedEmpty || stats.ConstraintGated || len(rows) != 0 {
		t.Errorf("expected pruned empty result, not gated: %+v", stats)
	}
}

func TestPublicAPIStore(t *testing.T) {
	s := NewStore(Personnel1())
	oid, err := s.Insert("Employee", map[string]Value{
		"ssn": Str("1"), "salary": Real(1000), "trav_reimb": Int(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(oid); !ok {
		t.Fatal("object missing")
	}
	// Constraint enforcement through the facade.
	if _, err := s.Insert("Employee", map[string]Value{
		"ssn": Str("2"), "salary": Real(9999), "trav_reimb": Int(10),
	}); err == nil {
		t.Error("salary cap should be enforced")
	}
}

func TestPublicAPIChecker(t *testing.T) {
	c := &Checker{}
	v := c.Entails(
		[]Expr{MustParseExpr("rating >= 7")},
		MustParseExpr("rating >= 4"))
	if v != Yes {
		t.Errorf("entailment = %v", v)
	}
	if c.Satisfiable(MustParseExpr("x in {1,2}"), MustParseExpr("x in {3}")) != No {
		t.Error("disjoint memberships should be unsatisfiable")
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	p := DefaultWorkloadParams()
	p.LocalBooks, p.RemoteBooks = 50, 50
	l, r := BibliographicWorkload(p)
	if l.Count() == 0 || r.Count() == 0 {
		t.Error("empty workload")
	}
	d1, d2 := PersonnelWorkload(PersonnelWorkloadParams{Seed: 1, DB1: 10, DB2: 10, Overlap: 0.5})
	if d1.Count() != 10 || d2.Count() != 10 {
		t.Error("personnel workload sizes")
	}
}

func TestPublicAPISetValues(t *testing.T) {
	s := NewSet(Int(2), Int(1), Int(2))
	if s.Len() != 2 || !s.Contains(Int(1)) {
		t.Errorf("NewSet = %v", s)
	}
}

func TestPublicAPICompile(t *testing.T) {
	spec, err := Compile(Figure1Library(), Figure1Bookseller(), Figure1Integration())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PropEqs) != 7 {
		t.Errorf("propeqs = %d", len(spec.PropEqs))
	}
}

func TestPublicAPIParseQuery(t *testing.T) {
	q, err := ParseQuery("select title from Item where shopprice < 100")
	if err != nil {
		t.Fatal(err)
	}
	if q.Class != "Item" || len(q.Select) != 1 {
		t.Errorf("query = %+v", q)
	}
	if _, err := ParseQuery("garbage"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestPublicAPISpecRewriting(t *testing.T) {
	s := Figure1Integration()
	printed := s.Print()
	if _, err := ParseIntegration(printed); err != nil {
		t.Fatalf("printed spec must reparse: %v", err)
	}
	fixed, err := s.ReplaceRule("r3", "rule r3: Sim(R:Proceedings, RefereedPubl) <= R.ref? = true and R.rating >= 4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(Figure1Library(), Figure1Bookseller(), fixed); err != nil {
		t.Fatalf("rewritten spec must compile: %v", err)
	}
}

func TestPublicAPIConflictConstants(t *testing.T) {
	local, remote := Figure1Stores(FixtureOptions{})
	res, err := Integrate(Figure1Library(), Figure1Bookseller(), Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, c := range res.Derivation.Conflicts {
		kinds[c.Kind.String()] = true
		for _, s := range c.Suggestions {
			_ = s.Kind.String()
		}
	}
	if !kinds[ConflictStrictSim.String()] {
		t.Errorf("expected strict-sim conflicts in the original spec: %v", kinds)
	}
}

// TestPublicAPIMutationLifecycle exercises the public mutation surface:
// delta-restricted validation with repairs, batched shipping, and the
// updated view being served.
func TestPublicAPIMutationLifecycle(t *testing.T) {
	fed := buildFigure1Federation(t, 0, false)
	e := fed.Engine()
	ctx := context.Background()

	// Find the IEEE-published VLDB proceedings (merged across both
	// members) and the Bookseller-only CAiSE proceedings.
	var id, caise int
	for _, g := range fed.Result().View.Extent("Proceedings") {
		switch v, _ := g.Get("isbn"); {
		case v == nil:
		case v.Equal(Str("vldb96")):
			id = g.ID
		case v.Equal(Str("caise96")):
			caise = g.ID
		}
	}
	if id == 0 || caise == 0 {
		t.Fatal("vldb96 or caise96 not found")
	}

	// A doomed update is rejected with a repair proposal.
	rejs, stats, err := e.Validate(ctx, []Mutation{
		{Kind: MutUpdate, Class: "Proceedings", ID: id, Attrs: map[string]Value{"ref?": Bool(false)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 || len(rejs[0].Repairs) == 0 {
		t.Fatalf("rejections = %v, want one with repairs", rejs)
	}
	if stats.PairsChecked == 0 {
		t.Error("validation did no work")
	}

	// A clean batch ships and is served. (The rating update targets the
	// single-member object: Ship sends an update to every member holding
	// a constituent, and the library's 1..5 rating scale is not the
	// Bookseller's.)
	err = e.Ship(ctx, []Mutation{
		{Kind: MutInsert, Class: "Item", Attrs: map[string]Value{
			"title": Str("API batch"), "isbn": Str("api-batch-1"),
			"publisher": Ref{DB: "Bookseller", OID: 3},
			"shopprice": Real(20), "libprice": Real(15),
		}},
		{Kind: MutUpdate, Class: "Proceedings", ID: caise, Attrs: map[string]Value{"rating": Int(9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.Run(Query{Class: "Item", Where: MustParseExpr("isbn = 'api-batch-1'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("batched insert not served: %v", rows)
	}
	if viols, _ := e.CheckAll(); len(viols) != 0 {
		t.Errorf("CheckAll after batch: %v", viols)
	}

	// One N-element batch and N one-element batches converge to the
	// same integrated state: batching changes how often the local
	// managers validate, never what is served.
	inserts := make([]Mutation, 8)
	for i := range inserts {
		inserts[i] = Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]Value{
			"title": Str(fmt.Sprintf("API insert %d", i)), "isbn": Str(fmt.Sprintf("api-ins-%d", i)),
			"publisher": Ref{DB: "Bookseller", OID: 3},
			"shopprice": Real(20), "libprice": Real(15),
		}}
	}
	batched, single := buildFigure1Federation(t, 1, false), buildFigure1Federation(t, 1, false)
	if err := batched.Engine().Ship(ctx, inserts); err != nil {
		t.Fatal(err)
	}
	for i := range inserts {
		if err := single.Engine().Ship(ctx, inserts[i:i+1]); err != nil {
			t.Fatalf("singleton insert %d: %v", i, err)
		}
	}
	if b, s := batched.Result().Report(), single.Result().Report(); b != s {
		t.Errorf("batched and singleton shipping diverge:\n--- batched\n%s\n--- singletons\n%s", b, s)
	}
}

// TestDerivationOnePerAvgPairedBound pins §5.2.1's equality derivation
// at width k: a single class pair whose k integer properties are each
// bounded on both sides and fused by avg derives exactly k global
// constraints, and the worker pool with memoized entailment reports
// byte for byte what the sequential, cache-free run does.
func TestDerivationOnePerAvgPairedBound(t *testing.T) {
	for _, k := range []int{3, 9, 64} {
		var local, remote, ispec strings.Builder
		local.WriteString("Database L\nClass C\n  attributes\n    k : string\n")
		remote.WriteString("Database R\nClass D\n  attributes\n    k : string\n")
		ispec.WriteString("integration L imports R\nrule r1: Eq(A:C, B:D) <= A.k = B.k\npropeq(C.k, D.k, id, id, any)\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&local, "    p%d : int\n", i)
			fmt.Fprintf(&remote, "    p%d : int\n", i)
			fmt.Fprintf(&ispec, "propeq(C.p%d, D.p%d, id, id, avg)\n", i, i)
		}
		local.WriteString("  object constraints\n")
		remote.WriteString("  object constraints\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&local, "    oc%d: p%d >= %d\n", i, i, i)
			fmt.Fprintf(&remote, "    oc%d: p%d >= %d\n", i, i, i+2)
		}
		local.WriteString("end C\n")
		remote.WriteString("end D\n")
		ls, rs := MustParseDatabase(local.String()), MustParseDatabase(remote.String())
		is := MustParseIntegration(ispec.String())

		seq, err := IntegrateOptions(ls, rs, is, NewStore(ls), NewStore(rs), 1, PipelineOptions{Parallelism: 1, NoMemo: true})
		if err != nil {
			t.Fatalf("k=%d sequential: %v", k, err)
		}
		par, err := IntegrateOptions(ls, rs, is, NewStore(ls), NewStore(rs), 1, PipelineOptions{})
		if err != nil {
			t.Fatalf("k=%d parallel: %v", k, err)
		}
		if seq.Report() != par.Report() {
			t.Errorf("k=%d: parallel report diverged from sequential", k)
		}
		derived := 0
		for _, gc := range seq.Derivation.Global {
			if strings.HasPrefix(gc.Derivation, "derived(") {
				derived++
			}
		}
		if derived != k {
			t.Errorf("k=%d: %d derived global constraints, want one per avg-paired bound", k, derived)
		}
	}
}
