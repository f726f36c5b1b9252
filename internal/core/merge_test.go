package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

func fig1View(t testing.TB, opt fixture.Options) *GlobalView {
	c := fig1Conformed(t, opt)
	v, err := Merge(c)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return v
}

// globalByTitle finds the global object with the given title.
func globalByTitle(t testing.TB, v *GlobalView, title string) *GObj {
	t.Helper()
	for _, g := range v.Objects {
		if ttl, ok := g.Get("title"); ok && ttl.Equal(object.Str(title)) {
			return g
		}
	}
	t.Fatalf("no global object titled %q", title)
	return nil
}

// TestMergeEntityResolution: the VLDB proceedings exists in both
// databases with the same ISBN and must merge into one global object.
func TestMergeEntityResolution(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	g := globalByTitle(t, v, "Proceedings of the 22nd VLDB Conference")
	if !g.Merged() {
		t.Fatal("vldb96 should be merged")
	}
	if len(g.Parts[LocalSide]) != 1 || len(g.Parts[RemoteSide]) != 1 {
		t.Errorf("parts: %d local, %d remote", len(g.Parts[LocalSide]), len(g.Parts[RemoteSide]))
	}
	// Unmatched objects stay single-source.
	if globalByTitle(t, v, "Proceedings of CAiSE").Merged() {
		t.Error("caise96 exists only remotely")
	}
	if globalByTitle(t, v, "Journal of the ACM").Merged() {
		t.Error("jacm exists only locally")
	}
	// Total: locals (6 publications + 4 virtual publishers) + remotes
	// (3 publishers + 4 items) minus merges (1 book + 3 publishers) = 13.
	if len(v.Objects) != 13 {
		t.Errorf("global objects = %d, want 13", len(v.Objects))
	}
}

// TestMergeDecisionFunctions checks §2.3 value fusion on the merged VLDB
// object: trust picks the authoritative price, avg fuses ratings, union
// fuses editors/authors.
func TestMergeDecisionFunctions(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	g := globalByTitle(t, v, "Proceedings of the 22nd VLDB Conference")
	// libprice: trust(CSLibrary) → local ourprice 75 (not remote 78).
	if got, _ := g.Get("libprice"); !got.Equal(object.Real(75)) {
		t.Errorf("libprice = %v, want 75 (trust CSLibrary)", got)
	}
	// shopprice: trust(Bookseller) → remote 80.
	if got, _ := g.Get("shopprice"); !got.Equal(object.Real(80)) {
		t.Errorf("shopprice = %v, want 80 (trust Bookseller)", got)
	}
	// rating: avg(local 4×2, remote 8) = 8.
	if got, _ := g.Get("rating"); !got.Equal(object.Int(8)) {
		t.Errorf("rating = %v, want 8", got)
	}
	// editors ∪ authors = {Buchmann, Vijayaraman}.
	if got, _ := g.Get("authors"); !got.Equal(object.NewSet(object.Str("Buchmann"), object.Str("Vijayaraman"))) {
		t.Errorf("authors = %v", got)
	}
	// ref? is single-source.
	if got, _ := g.Get("ref?"); !got.Equal(object.Bool(true)) {
		t.Errorf("ref? = %v", got)
	}
}

// TestMergeVirtualPublisherUnification: the virtual publishers created
// from local values merge with the bookseller's publisher objects via the
// implied equality rule; Addison-Wesley stays local-only.
func TestMergeVirtualPublisherUnification(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	merged, localOnly := 0, 0
	for _, g := range v.Extent("VirtPublisher") {
		if g.Merged() {
			merged++
		} else {
			localOnly++
		}
	}
	if merged != 3 || localOnly != 1 {
		t.Errorf("virtual publishers: %d merged, %d local-only; want 3/1", merged, localOnly)
	}
	// A merged publisher carries the remote location attribute too.
	for _, g := range v.Extent("Publisher") {
		if name, _ := g.Get("name"); name.Equal(object.Str("IEEE")) {
			if loc, ok := g.Get("location"); !ok || !loc.Equal(object.Str("New York")) {
				t.Errorf("merged IEEE location = %v", loc)
			}
		}
	}
	// ext(Publisher) ⊆ ext(VirtPublisher) shows up as a derived isa edge.
	found := false
	for _, e := range v.ISA {
		if e.Sub == "Publisher" && e.Super == "VirtPublisher" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected Publisher isa VirtPublisher; edges: %v", v.ISA)
	}
}

// TestMergeSimClassification: r3 classifies refereed proceedings under
// RefereedPubl (and its superclasses); r4 sends the workshop notes to
// NonRefereedPubl; r5 classifies 'Proceed'-titled local publications
// under the bookseller's Proceedings.
func TestMergeSimClassification(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	caise := globalByTitle(t, v, "Proceedings of CAiSE")
	for _, want := range []string{"Proceedings", "Item", "RefereedPubl", "ScientificPubl", "Publication"} {
		if !caise.Classes[want] {
			t.Errorf("caise96 should be in %s; has %v", want, caise.Classes)
		}
	}
	wkshp := globalByTitle(t, v, "Workshop Notes on Interoperation")
	if !wkshp.Classes["NonRefereedPubl"] || wkshp.Classes["RefereedPubl"] {
		t.Errorf("workshop classes: %v", wkshp.Classes)
	}
	// sigmod96 is local-only but titled "Proceedings of SIGMOD" → r5.
	sigmod := globalByTitle(t, v, "Proceedings of SIGMOD")
	if !sigmod.Classes["Proceedings"] || !sigmod.Classes["Item"] {
		t.Errorf("sigmod classes: %v", sigmod.Classes)
	}
	// The refereed journal is not similar to any bookseller class.
	jacm := globalByTitle(t, v, "Journal of the ACM")
	if jacm.Classes["Proceedings"] {
		t.Errorf("jacm must not be a Proceedings: %v", jacm.Classes)
	}
	// The monograph stays out of the library's classification.
	tp := globalByTitle(t, v, "Transaction Processing")
	if tp.Classes["Publication"] || !tp.Classes["Monograph"] {
		t.Errorf("monograph classes: %v", tp.Classes)
	}
}

// TestE10RefereedProceedings reproduces Figure 2 / §2.3: because some but
// not all Proceedings are RefereedPubl (and vice versa), the virtual
// intersection subclass — the paper's RefereedProceedings — emerges, a
// subclass of both.
func TestE10RefereedProceedings(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	if len(v.VirtualSubclasses) == 0 {
		t.Fatal("expected a virtual intersection subclass")
	}
	var vs *VirtualSubclass
	for i := range v.VirtualSubclasses {
		if v.VirtualSubclasses[i].LocalClass == "RefereedPubl" && v.VirtualSubclasses[i].RemoteClass == "Proceedings" {
			vs = &v.VirtualSubclasses[i]
		}
	}
	if vs == nil {
		t.Fatalf("no RefereedPubl∩Proceedings subclass: %+v", v.VirtualSubclasses)
	}
	// Members: vldb96 (merged), caise96 (imported refereed), sigmod96
	// (refereed + 'Proceed'-titled) — but not jacm (not a proceedings)
	// and not wkshp1 (not refereed).
	members := map[string]bool{}
	for _, id := range vs.MemberIDs {
		g := v.Objects[id-1]
		ttl, _ := g.Get("title")
		members[ttl.String()] = true
	}
	for _, want := range []string{"'Proceedings of the 22nd VLDB Conference'", "'Proceedings of CAiSE'", "'Proceedings of SIGMOD'"} {
		if !members[want] {
			t.Errorf("intersection class missing %s; has %v", want, members)
		}
	}
	if len(vs.MemberIDs) != 3 {
		t.Errorf("intersection size = %d, want 3", len(vs.MemberIDs))
	}
	// It is a subclass of both parents in the derived lattice.
	subOf := map[string]bool{}
	for _, e := range v.ISA {
		if e.Sub == vs.Name {
			subOf[e.Super] = true
		}
	}
	if !subOf["RefereedPubl"] || !subOf["Proceedings"] {
		t.Errorf("virtual subclass supers: %v", subOf)
	}
}

// TestMergeLatticeEdges spot-checks derived containment edges.
func TestMergeLatticeEdges(t *testing.T) {
	v := fig1View(t, fixture.Options{})
	has := func(sub, super string) bool {
		for _, e := range v.ISA {
			if e.Sub == sub && e.Super == super {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]string{
		{"RefereedPubl", "ScientificPubl"},
		{"RefereedPubl", "Publication"},
		{"Proceedings", "Item"},
		{"Monograph", "Item"},
	} {
		if !has(e[0], e[1]) {
			t.Errorf("missing derived edge %s isa %s", e[0], e[1])
		}
	}
	if has("Item", "Publication") {
		t.Error("Item must not be contained in Publication (the monograph is no Publication)")
	}
}

// TestMergePersonnel: the introduction's employee 101 is registered in
// both departments; company policy averages the tariffs.
func TestMergePersonnel(t *testing.T) {
	db1, db2 := fixture.PersonnelStores()
	spec := MustCompile(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration())
	c, err := Conform(spec, db1, db2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Objects) != 3 {
		t.Fatalf("global employees = %d, want 3", len(v.Objects))
	}
	// Class collision: global classes are database-qualified.
	if v.Extent("DB1.Employee") == nil || v.Extent("DB2.Employee") == nil {
		t.Fatalf("qualified global classes missing: %v", v.ClassNames)
	}
	var both *GObj
	for _, g := range v.Objects {
		if g.Merged() {
			both = g
		}
	}
	if both == nil {
		t.Fatal("employee 101 should be merged")
	}
	if trav, _ := both.Get("trav_reimb"); !trav.Equal(object.Int(22)) {
		t.Errorf("trav_reimb = %v, want avg(20,24)=22", trav)
	}
	if sal, _ := both.Get("salary"); !sal.Equal(object.Real(1500)) {
		t.Errorf("salary = %v, want avg(1400,1600)=1500", sal)
	}
}

// TestMergeDeterminism: equal seeds give identical views; the conflict-
// ignoring function is the only source of non-determinism.
func TestMergeDeterminism(t *testing.T) {
	render := func(seed int64) string {
		local, remote := fixture.Figure1Stores(fixture.Options{})
		s := fig1Spec(t)
		s.Seed = seed
		c, err := Conform(s, local, remote)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Merge(c)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, g := range v.Objects {
			out += g.String() + "\n"
		}
		return out
	}
	if render(1) != render(1) {
		t.Error("same seed must give identical merges")
	}
}

// dumpMerged renders every global object in ID order — its classes and
// fused values (GObj.String) and its constituents by side — then the
// class names in registration order and the derived lattice.
func dumpMerged(v *GlobalView) string {
	var b strings.Builder
	for _, g := range v.Objects {
		b.WriteString(g.String())
		for side := Side(0); int(side) < v.memberSlots(); side++ {
			for _, m := range g.Parts[side] {
				b.WriteString(" " + side.String() + ":" + m.Src.String())
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("classes " + strings.Join(v.ClassNames, ",") + "\n")
	for _, e := range v.ISA {
		b.WriteString("isa " + e.Sub + " < " + e.Super + "\n")
	}
	for _, vs := range v.VirtualSubclasses {
		fmt.Fprintf(&b, "virtual %s = %s & %s %v\n", vs.Name, vs.LocalClass, vs.RemoteClass, vs.MemberIDs)
	}
	for _, as := range v.ApproxSupers {
		fmt.Fprintf(&b, "approx %s > %s, %s %v\n", as.Name, as.LocalClass, as.RemoteClass, as.MemberIDs)
	}
	return b.String()
}

// TestMergeObjectsGolden pins what Merge builds on the six fixture pairs
// of TestConformObjectsGolden: every global object with its classes,
// fused values and constituents, in ID order, and the class lattice. The
// goldens were written by the per-object fusion that compiled fusion
// plans replaced.
func TestMergeObjectsGolden(t *testing.T) {
	for _, tc := range goldenPairs(t) {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Merge(tc.conform(t))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "merge_"+tc.name+".golden", dumpMerged(v))
		})
	}
}

// TestEqRuleJoinSignedZero: an Eq rule joining on a numeric attribute
// merges a local −0.0 with a remote 0, as `=` says it should, whether
// entity resolution runs the hash join or the nested loop.
func TestEqRuleJoinSignedZero(t *testing.T) {
	const (
		localSrc = `
Database Ledger

Class Entry
  attributes
    k : real
    memo : string
end Entry
`
		remoteSrc = `
Database Journal

Class Line
  attributes
    k : int
    note : string
end Line
`
		integSrc = `
integration Ledger imports Journal

rule z: Eq(E:Entry, L:Line) <= E.k = L.k
`
	)
	merge := func(disable bool) string {
		ls, rs := tm.MustParseDatabase(localSrc), tm.MustParseDatabase(remoteSrc)
		lst, rst := store.New(ls.Schema, ls.Consts), store.New(rs.Schema, rs.Consts)
		lst.MustInsert("Entry", map[string]object.Value{"k": object.Real(math.Copysign(0, -1)), "memo": object.Str("neg")})
		lst.MustInsert("Entry", map[string]object.Value{"k": object.Real(2), "memo": object.Str("two")})
		rst.MustInsert("Line", map[string]object.Value{"k": object.Int(0), "note": object.Str("zero")})
		rst.MustInsert("Line", map[string]object.Value{"k": object.Int(2), "note": object.Str("two")})
		spec, err := Compile(ls, rs, tm.MustParseIntegration(integSrc))
		if err != nil {
			t.Fatal(err)
		}
		spec.DisableHashJoin = disable
		c, err := Conform(spec, lst, rst)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Merge(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Objects) != 2 {
			t.Errorf("DisableHashJoin=%v: %d global objects, want 2 (both pairs merged)", disable, len(v.Objects))
		}
		return dumpMerged(v)
	}
	if hash, loop := merge(false), merge(true); hash != loop {
		t.Errorf("hash join and nested loop merge differently:\nhash join:\n%s\nnested loop:\n%s", hash, loop)
	}
}
