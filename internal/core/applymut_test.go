package core

import (
	"fmt"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

func integratedFigure1(t testing.TB, scale int) *Result {
	t.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return res
}

// TestReclassifyIsFixpointOnUntouchedObjects: re-deriving the Sim-rule
// memberships of an object nobody updated must reproduce exactly the
// classification the integration pipeline computed.
func TestReclassifyIsFixpointOnUntouchedObjects(t *testing.T) {
	for _, scale := range []int{1, 10} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			res := integratedFigure1(t, scale)
			v := res.View
			env := v.Conformed.ruleEnv() // one pass: every object reuses it
			for _, g := range v.Objects {
				before := map[string]bool{}
				for c := range g.Classes {
					before[c] = true
				}
				changed, err := v.reclassify(g, &retraction{}, env)
				if err != nil {
					t.Fatalf("reclassify g%d: %v", g.ID, err)
				}
				if len(changed) != 0 {
					t.Errorf("g%d: reclassify of untouched object changed classes %v (before %v, after %v)",
						g.ID, changed, before, g.Classes)
				}
			}
		})
	}
}

// TestApplyUpdateMovesAcrossSimMembership: flipping ref? moves a
// Bookseller proceedings across the r3 membership predicate into and out
// of RefereedPubl (and the emergent intersection subclass when one
// exists).
func TestApplyUpdateMovesAcrossSimMembership(t *testing.T) {
	res := integratedFigure1(t, 1)
	v := res.View

	// Find a remote-only proceedings currently in RefereedPubl via r3 (a
	// merged object would keep the membership through its local
	// constituent, which is value-independent).
	var target *GObj
	for _, g := range v.Extent("RefereedPubl") {
		if len(g.Parts[LocalSide]) == 0 && len(g.Parts[RemoteSide]) > 0 && g.Classes["Proceedings"] {
			target = g
			break
		}
	}
	if target == nil {
		t.Fatal("no refereed proceedings in the fixture")
	}
	inExt := func(class string, g *GObj) bool {
		for _, o := range v.Extent(class) {
			if o == g {
				return true
			}
		}
		return false
	}
	if !inExt("RefereedPubl", target) {
		t.Fatal("target not in RefereedPubl extent")
	}

	old, changed, err := v.ApplyUpdate(target, map[string]object.Value{"ref?": object.Bool(false)})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if !old["ref?"].Equal(object.Bool(true)) {
		t.Errorf("old ref? = %v, want true", old["ref?"])
	}
	if target.Classes["RefereedPubl"] || inExt("RefereedPubl", target) {
		t.Error("object still member of RefereedPubl after ref? := false")
	}
	found := false
	for _, c := range changed {
		if c == "RefereedPubl" {
			found = true
		}
	}
	if !found {
		t.Errorf("changed classes %v do not include RefereedPubl", changed)
	}

	// Flip back: membership must be restored.
	if _, _, err := v.ApplyUpdate(target, map[string]object.Value{"ref?": object.Bool(true)}); err != nil {
		t.Fatalf("ApplyUpdate back: %v", err)
	}
	if !target.Classes["RefereedPubl"] || !inExt("RefereedPubl", target) {
		t.Error("membership not restored after ref? := true")
	}
}

// TestApplyDeleteRemovesEverywhere: a deleted object leaves every class
// extent, the object list, and the reference table; its ID is never
// reassigned to a later insert.
func TestApplyDeleteRemovesEverywhere(t *testing.T) {
	res := integratedFigure1(t, 1)
	v := res.View
	g := v.Extent("Proceedings")[0]
	id := g.ID
	classes := make([]string, 0, len(g.Classes))
	for c := range g.Classes {
		classes = append(classes, c)
	}
	var srcs []object.Ref
	for _, ms := range g.Parts {
		for _, m := range ms {
			srcs = append(srcs, m.Src)
		}
	}

	if _, err := v.ApplyDelete(g); err != nil {
		t.Fatalf("ApplyDelete: %v", err)
	}
	if _, ok := v.ByID(id); ok {
		t.Error("deleted object still resolvable by ID")
	}
	for _, cls := range classes {
		for _, o := range v.Extent(cls) {
			if o == g {
				t.Errorf("deleted object still in extent of %s", cls)
			}
		}
	}
	for _, src := range srcs {
		if got, ok := v.Deref(src); ok && got == any(g) {
			t.Errorf("deleted object still dereferencable via %v", src)
		}
	}
	for _, o := range v.Objects {
		if o == g {
			t.Error("deleted object still in Objects")
		}
	}

	// A later insert gets a fresh ID, not the deleted one.
	attrs := map[string]object.Value{"title": object.Str("fresh"), "isbn": object.Str("fresh-1")}
	ng, err := v.ApplyInsert("Proceedings", attrs, object.Ref{DB: "Bookseller", OID: 9999})
	if err != nil {
		t.Fatalf("ApplyInsert: %v", err)
	}
	if ng.ID == id {
		t.Errorf("deleted ID %d was reused", id)
	}
	if _, ok := v.ByID(ng.ID); !ok {
		t.Error("fresh insert not resolvable by ID")
	}

	// Double delete errors.
	if _, err := v.ApplyDelete(g); err == nil {
		t.Error("second ApplyDelete should fail")
	}
}
