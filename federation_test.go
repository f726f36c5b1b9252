package interopdb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// buildFigure1Federation attaches CSLibrary (seed), Bookseller and —
// when third is true — UnivArchive, at the given fixture scale.
func buildFigure1Federation(t *testing.T, scale int, third bool) *Federation {
	t.Helper()
	local, remote := Figure1Stores(FixtureOptions{Scale: scale})
	fed := NewFederation(1, PipelineOptions{})
	if err := fed.Attach(Figure1Library(), local, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Figure1Bookseller(), remote, Figure1IntegrationRepaired()); err != nil {
		t.Fatal(err)
	}
	if third {
		if err := fed.Attach(Figure1UnivArchive(), ArchiveStore(FixtureOptions{Scale: scale}), Figure1ArchiveIntegration()); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// TestFederationPairDifferential pins the compatibility contract: a
// two-member federation built via Attach+Attach produces a Result whose
// Report is byte-identical to the pairwise Integrate on the same
// inputs, for the Figure 1 and Personnel fixtures across scales.
func TestFederationPairDifferential(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("figure1/scale%d", scale), func(t *testing.T) {
			local, remote := Figure1Stores(FixtureOptions{Scale: scale})
			want, err := Integrate(Figure1Library(), Figure1Bookseller(), Figure1IntegrationRepaired(), local, remote, 1)
			if err != nil {
				t.Fatal(err)
			}
			l2, r2 := Figure1Stores(FixtureOptions{Scale: scale})
			fed := NewFederation(1, PipelineOptions{})
			if err := fed.Attach(Figure1Library(), l2, nil); err != nil {
				t.Fatal(err)
			}
			if err := fed.Attach(Figure1Bookseller(), r2, Figure1IntegrationRepaired()); err != nil {
				t.Fatal(err)
			}
			if got := fed.Result().Report(); got != want.Report() {
				t.Fatalf("federation report differs from pairwise Integrate:\n--- federation\n%s\n--- integrate\n%s", got, want.Report())
			}
			if got := fed.Report(); got != want.Report() {
				t.Fatalf("fed.Report() not pairwise for a two-member federation")
			}
		})
	}
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("personnel/scale%d", scale), func(t *testing.T) {
			p := PersonnelWorkloadParams{DB1: 20 * scale, DB2: 20 * scale, Overlap: 0.4, Seed: 7}
			db1, db2 := PersonnelWorkload(p)
			want, err := Integrate(Personnel1(), Personnel2(), PersonnelIntegration(), db1, db2, 1)
			if err != nil {
				t.Fatal(err)
			}
			e1, e2 := PersonnelWorkload(p)
			fed := NewFederation(1, PipelineOptions{})
			if err := fed.Attach(Personnel1(), e1, nil); err != nil {
				t.Fatal(err)
			}
			if err := fed.Attach(Personnel2(), e2, PersonnelIntegration()); err != nil {
				t.Fatal(err)
			}
			if got := fed.Result().Report(); got != want.Report() {
				t.Fatalf("federation report differs from pairwise Integrate at scale %d", scale)
			}
		})
	}
}

// TestFederationThirdMember pins the three-member semantics: cross-pair
// constraint derivation (the archive pair's constraints land on the
// combined view with provenance, key propagation dedups across pairs)
// and Sim-classification across pairs (archive conference records join
// ScholarlyLike next to the library's scientific publications; the
// shared-ISBN records merge three ways).
func TestFederationThirdMember(t *testing.T) {
	fed := buildFigure1Federation(t, 0, true)
	res := fed.Result()

	if got := fed.Members(); len(got) != 3 {
		t.Fatalf("members = %v", got)
	}

	// The VLDB proceedings is now one object with constituents in all
	// three stores.
	e := fed.Engine()
	rows, _, err := e.Run(Query{Class: "Record", Where: MustParseExpr("isbn = 'vldb96'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("Record[isbn=vldb96] rows = %d", len(rows))
	}
	var vldb *GlobalObject
	for _, g := range res.View.Objects {
		if v, ok := g.Get("isbn"); ok && v.String() == "'vldb96'" {
			if g.InClass("Record") {
				vldb = g
				break
			}
		}
	}
	if vldb == nil {
		t.Fatal("no merged vldb96 object holding class Record")
	}
	sides := map[int]bool{}
	for _, m := range vldb.Parts {
		sides[int(m.Side)] = true
	}
	if len(sides) != 3 {
		t.Fatalf("vldb96 object spans %d members, want 3 (parts: %v)", len(sides), vldb.Parts)
	}
	if !vldb.InClass("Proceedings") || !vldb.InClass("Publication") {
		t.Fatalf("vldb96 lost pair-1 classes: %v", vldb.Classes)
	}

	// Sim-classification across pairs: ScholarlyLike ⊇ ScientificPubl's
	// extension plus the well-scored archive records (the merged VLDB
	// and SIGMOD records and the archive-only symposium digest — but
	// NOT the score-40 workshop record).
	scholarly := res.View.Extent("ScholarlyLike")
	sci := res.View.Extent("ScientificPubl")
	if len(scholarly) == 0 {
		t.Fatal("ScholarlyLike is empty")
	}
	inScholarly := map[int]bool{}
	for _, g := range scholarly {
		inScholarly[g.ID] = true
	}
	for _, g := range sci {
		if !inScholarly[g.ID] {
			t.Fatalf("ScientificPubl member g%d missing from ScholarlyLike", g.ID)
		}
	}
	for _, g := range res.View.Extent("ConfRecord") {
		score, _ := g.Get("score")
		want := score.String() != "40"
		if inScholarly[g.ID] != want {
			t.Fatalf("ConfRecord g%d (score %s) ScholarlyLike membership = %v, want %v",
				g.ID, score, inScholarly[g.ID], want)
		}
	}

	// Cross-pair constraint derivation: the archive pair's objective
	// constraint surfaces on ConfRecord; the approximate-similarity
	// disjunction lands on ScholarlyLike; the key constraint on
	// Publication is contributed by BOTH pairs (provenance union).
	var sawConf, sawDisj bool
	for _, gc := range res.Derivation.Global {
		for _, cls := range gc.Classes {
			if cls == "ConfRecord" && gc.Derivation == "objective" {
				sawConf = true
			}
			if cls == "ScholarlyLike" && gc.Derivation == "disjunction(approx-sim)" {
				sawDisj = true
			}
		}
		if gc.Derivation == "key-propagation" && len(gc.Classes) == 1 && gc.Classes[0] == "Publication" {
			if len(gc.Provenance) != 2 {
				t.Fatalf("Publication key constraint provenance = %v, want both pairs", gc.Provenance)
			}
		}
	}
	if !sawConf {
		t.Fatal("archive objective constraint on ConfRecord not derived")
	}
	if !sawDisj {
		t.Fatal("ScholarlyLike disjunction constraint not derived")
	}

	// The federated report names all members and the provenance.
	rep := fed.Report()
	for _, want := range []string{
		"=== Federation: CSLibrary + Bookseller + UnivArchive ===",
		"UnivArchive via CSLibrary+UnivArchive",
		"ScholarlyLike",
		"(via UnivArchive)",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("federated report missing %q:\n%s", want, rep)
		}
	}
}

// TestFederationDetachRoundTrip pins the retraction rule end to end:
// detaching the archive returns the combined state to the two-member
// report byte for byte (constraints retracted by provenance, classes
// deregistered, merged objects reclassified), and re-attaching it
// reproduces the three-member report.
func TestFederationDetachRoundTrip(t *testing.T) {
	fed := buildFigure1Federation(t, 1, false)
	before := fed.Result().Report()

	archive := ArchiveStore(FixtureOptions{Scale: 1})
	if err := fed.Attach(Figure1UnivArchive(), archive, Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
	threeWay := fed.Report()

	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}
	if got := fed.Result().Report(); got != before {
		t.Fatalf("detach did not restore the two-member state:\n--- before attach\n%s\n--- after detach\n%s", before, got)
	}
	if got := fed.Members(); len(got) != 2 {
		t.Fatalf("members after detach = %v", got)
	}
	if _, ok := fed.Stores().Get("UnivArchive"); ok {
		t.Fatal("archive store still registered after detach")
	}

	// Re-attach: the three-member federated report reproduces.
	if err := fed.Attach(Figure1UnivArchive(), archive, Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
	if got := fed.Report(); got != threeWay {
		t.Fatalf("re-attach did not reproduce the three-member state:\n--- first attach\n%s\n--- re-attach\n%s", threeWay, got)
	}
}

// TestFederationShipRouted pins per-member transaction routing: one
// mixed batch whose operations land in three different member stores —
// an insert routed to its origin member, an update fanned to every
// store holding a constituent of a three-way merged object, a delete of
// an archive-only object — committed one deferred-validation
// transaction per member and applied to the view atomically.
func TestFederationShipRouted(t *testing.T) {
	fed := buildFigure1Federation(t, 0, true)
	e := fed.Engine()
	res := fed.Result()

	var vldb, thesis *GlobalObject
	for _, g := range res.View.Objects {
		isbn, ok := g.Get("isbn")
		if !ok {
			continue
		}
		switch isbn.String() {
		case "'vldb96'":
			if g.InClass("Record") && g.InClass("Item") {
				vldb = g
			}
		case "'thesis1'":
			thesis = g
		}
	}
	if vldb == nil || thesis == nil {
		t.Fatal("fixture objects not found in the combined view")
	}

	lib, _ := fed.Stores().Get("CSLibrary")
	bs, _ := fed.Stores().Get("Bookseller")
	arch, _ := fed.Stores().Get("UnivArchive")
	archBefore := arch.Count()

	ops := []Mutation{
		{Kind: MutInsert, Class: "Record", Attrs: map[string]Value{
			"title": Str("Newly Archived Volume"), "isbn": Str("newvol1"),
			"keeper": Str("Annex"), "price": Real(15), "pages": Int(300),
		}},
		{Kind: MutUpdate, Class: "Publication", ID: vldb.ID, Attrs: map[string]Value{
			"title": Str("Proceedings of the 22nd VLDB Conference (2nd printing)"),
		}},
		{Kind: MutDelete, Class: "ThesisRecord", ID: thesis.ID},
	}
	if rejs, _, err := e.Validate(context.Background(), ops); err != nil {
		t.Fatal(err)
	} else if len(rejs) != 0 {
		t.Fatalf("validation rejected the batch: %v", rejs)
	}
	if err := e.Ship(context.Background(), ops); err != nil {
		t.Fatal(err)
	}

	// Insert landed in the archive, delete removed the thesis there.
	if got := arch.Count(); got != archBefore {
		t.Fatalf("archive count %d, want %d (one insert, one delete)", got, archBefore)
	}
	// The title update reached every member holding a constituent.
	for _, st := range []StoreBackend{lib, bs, arch} {
		found := false
		for _, m := range vldb.Parts {
			if m.Src.DB != st.Name() {
				continue
			}
			obj, ok := st.Get(m.Src.OID)
			if !ok {
				t.Fatalf("constituent %v gone from %s", m.Src, st.Name())
			}
			if v, _ := obj.Get("title"); v.String() != "'Proceedings of the 22nd VLDB Conference (2nd printing)'" {
				t.Fatalf("%s constituent title not updated: %s", st.Name(), v)
			}
			found = true
		}
		if !found {
			t.Fatalf("no constituent of the merged object in %s", st.Name())
		}
	}
	// The view reflects the batch.
	rows, _, err := e.Run(Query{Class: "Record", Where: MustParseExpr("isbn = 'newvol1'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("routed insert not served: %d rows", len(rows))
	}
	rows, _, err = e.Run(Query{Class: "ThesisRecord"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("deleted thesis still served: %d rows", len(rows))
	}
	// Routing error: a member store missing from the registry.
	fed.Stores().Remove("UnivArchive")
	err = e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Record", Attrs: map[string]Value{
		"title": Str("x"), "isbn": Str("x1"), "keeper": Str("k"), "price": Real(1), "pages": Int(1),
	}}})
	if err == nil || !strings.Contains(err.Error(), "no store registered for member UnivArchive") {
		t.Fatalf("missing-store routing error = %v", err)
	}
}

// TestFederationDetachGuards pins the membership invariants: the seed
// and the base of an attached pair cannot leave, and a federation keeps
// serving an integrated pair.
func TestFederationDetachGuards(t *testing.T) {
	fed := buildFigure1Federation(t, 0, true)
	if err := fed.Detach("CSLibrary"); err == nil || !strings.Contains(err.Error(), "member is the federation seed and cannot be detached") {
		t.Fatalf("detaching the seed (base of both pairs) = %v", err)
	}
	// A non-seed member whose pair record is missing is refused for what
	// is true of it, not as the seed.
	contribs := fed.state.Contribs
	fed.state.Contribs = contribs[:1]
	if err := fed.Detach("UnivArchive"); err == nil || !strings.Contains(err.Error(), "no pair contribution recorded for member") {
		t.Fatalf("detaching a member without a pair record = %v", err)
	}
	fed.state.Contribs = contribs
	if err := fed.Detach("NoSuchDB"); err == nil {
		t.Fatal("detaching a non-member succeeded")
	}
	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}
	if err := fed.Detach("Bookseller"); err == nil {
		t.Fatal("shrinking below two members succeeded")
	}
	// Attach validation.
	if err := fed.Attach(Figure1Bookseller(), ArchiveStore(FixtureOptions{}), nil); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on: a cancellation that lands between two checks.
type cancelAfter struct {
	context.Context
	n, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestFederationAttachCancelledBetweenStages pins AttachContext's
// contract for every pair, the founding one included: a cancellation
// that lands after the entry check aborts the attach at the next check
// between pipeline stages, with context.Canceled and the membership
// unchanged; the same attach then succeeds with a live context.
func TestFederationAttachCancelledBetweenStages(t *testing.T) {
	local, remote := Figure1Stores(FixtureOptions{})
	fed := NewFederation(1, PipelineOptions{})
	if err := fed.Attach(Figure1Library(), local, nil); err != nil {
		t.Fatal(err)
	}
	attach := func(spec *DatabaseSpec, st *Store, is *IntegrationSpec, want []string) {
		t.Helper()
		ctx := &cancelAfter{Context: context.Background(), n: 1}
		if err := fed.AttachContext(ctx, spec, st, is); !errors.Is(err, context.Canceled) {
			t.Fatalf("attach %s cancelled after the entry check = %v, want context.Canceled", spec.Schema.Name, err)
		}
		if ctx.calls != 2 {
			t.Errorf("attach %s read Err %d times, want 2: aborted at the first check between stages", spec.Schema.Name, ctx.calls)
		}
		if got := fed.Members(); !slices.Equal(got, want) {
			t.Fatalf("members after a cancelled attach of %s = %v, want %v", spec.Schema.Name, got, want)
		}
		if err := fed.AttachContext(context.Background(), spec, st, is); err != nil {
			t.Fatal(err)
		}
	}
	attach(Figure1Bookseller(), remote, Figure1IntegrationRepaired(), []string{"CSLibrary"})
	if fed.Result() == nil {
		t.Fatal("no combined result after the founding attach")
	}
	attach(Figure1UnivArchive(), ArchiveStore(FixtureOptions{}), Figure1ArchiveIntegration(), []string{"CSLibrary", "Bookseller"})
}
