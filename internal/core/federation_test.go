package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// A minimal three-member scenario whose third pair's similarity rule
// NAVIGATES A REFERENCE (G.maker.mname): reclassification after a
// mutation must be able to deref the grafted member's objects through
// the combined conformed world.
const (
	fedHubSrc = `
Database Hub

Class Thing
  attributes
    code : string
    name : string
end Thing
`
	fedSpokeASrc = `
Database SpokeA

Class Widget
  attributes
    code : string
    size : int
end Widget
`
	fedSpokeBSrc = `
Database SpokeB

Class Maker
  attributes
    mname : string
end Maker

Class Gadget
  attributes
    code : string
    maker : Maker
    grade : int
end Gadget
`
	fedHubSpokeA = `
integration Hub imports SpokeA

rule w1: Eq(T:Thing, W:Widget) <= T.code = W.code
`
	fedHubSpokeB = `
integration Hub imports SpokeB

rule g1: Eq(T:Thing, G:Gadget) <= T.code = G.code
rule g2: Sim(G:Gadget, Thing, Premium) <= G.maker.mname = 'Acme' and G.grade >= 5
`
)

// buildMiniFed integrates Hub+SpokeA and grafts SpokeB, returning the
// federation state and the SpokeB store.
func buildMiniFed(t *testing.T, seedName string, reverseFounding bool) (*FedState, *store.Store) {
	t.Helper()
	hub := tm.MustParseDatabase(fedHubSrc)
	spokeA := tm.MustParseDatabase(fedSpokeASrc)
	spokeB := tm.MustParseDatabase(fedSpokeBSrc)
	hubSt := store.New(hub.Schema, hub.Consts)
	aSt := store.New(spokeA.Schema, spokeA.Consts)
	bSt := store.New(spokeB.Schema, spokeB.Consts)
	hubSt.MustInsert("Thing", map[string]object.Value{"code": object.Str("a"), "name": object.Str("alpha")})
	aSt.MustInsert("Widget", map[string]object.Value{"code": object.Str("a"), "size": object.Int(1)})
	acme := bSt.MustInsert("Maker", map[string]object.Value{"mname": object.Str("Acme")})
	bSt.MustInsert("Gadget", map[string]object.Value{
		"code": object.Str("b"), "maker": object.Ref{DB: "SpokeB", OID: acme}, "grade": object.Int(3),
	})

	memo := logic.NewMemo()
	opts := Options{Memo: memo}
	is1 := tm.MustParseIntegration(fedHubSpokeA)
	local, remote, ls, rs := hub, spokeA, hubSt, aSt
	if reverseFounding {
		// Header "SpokeA imports Hub": the seed lands on the REMOTE side.
		is1 = tm.MustParseIntegration(strings.Replace(fedHubSpokeA,
			"integration Hub imports SpokeA", "integration SpokeA imports Hub", 1))
		local, remote, ls, rs = spokeA, hub, aSt, hubSt
	}
	res, err := IntegrateOptions(local, remote, is1, ls, rs, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFedState(res, seedName, opts, memo)

	pspec, err := Compile(hub, spokeB, tm.MustParseIntegration(fedHubSpokeB))
	if err != nil {
		t.Fatal(err)
	}
	pspec.Seed = 1
	conf, err := ConformOptions(pspec, hubSt, bSt, opts)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := Merge(conf)
	if err != nil {
		t.Fatal(err)
	}
	pairRes := &Result{Spec: pspec, Conformed: conf, View: pv, Derivation: DeriveOptions(pv, opts)}
	if _, err := fs.AttachPair(pairRes, "SpokeB", "Hub"); err != nil {
		t.Fatal(err)
	}
	return fs, bSt
}

// TestFederationReclassifyDerefsGraftedMembers pins the conformed-deref
// registration: after a grafted member's object mutates, reclassify
// evaluates the pair's Sim condition — which navigates a reference into
// the member's store — and the membership moves accordingly.
func TestFederationReclassifyDerefsGraftedMembers(t *testing.T) {
	fs, _ := buildMiniFed(t, "Hub", false)
	v := fs.Res.View

	var gadget *GObj
	for _, g := range v.Objects {
		if c, ok := g.Get("code"); ok && c.String() == "'b'" {
			gadget = g
		}
	}
	if gadget == nil {
		t.Fatal("gadget not grafted")
	}
	if gadget.InClass("Premium") {
		t.Fatal("grade-3 gadget already Premium")
	}
	clone := v.DetachForUpdate(gadget)
	if _, _, err := v.ApplyUpdate(clone, map[string]object.Value{"grade": object.Int(7)}); err != nil {
		t.Fatalf("reclassify could not evaluate the ref-navigating Sim condition: %v", err)
	}
	if !clone.InClass("Premium") {
		t.Fatal("grade-7 Acme gadget did not join Premium")
	}
	// And back out again.
	clone2 := v.DetachForUpdate(clone)
	if _, _, err := v.ApplyUpdate(clone2, map[string]object.Value{"grade": object.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if clone2.InClass("Premium") {
		t.Fatal("grade-2 gadget kept Premium")
	}
	// Detach cleans the registered conformed refs.
	if _, _, err := fs.DetachMember("SpokeB"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Res.Conformed.Deref(object.Ref{DB: "SpokeB", OID: 1}); ok {
		t.Fatal("detached member's conformed refs still resolvable")
	}
}

// TestFederationSeedGuardReversedHeader pins that the seed cannot
// detach even when the founding integration spec named it in the REMOTE
// header slot (the tag/base assignment must track the seed, not the
// header orientation).
func TestFederationSeedGuardReversedHeader(t *testing.T) {
	fs, _ := buildMiniFed(t, "Hub", true)
	if _, _, err := fs.DetachMember("Hub"); err == nil {
		t.Fatal("detaching the seed succeeded under a reversed founding header")
	} else if !strings.Contains(err.Error(), "seed") {
		t.Fatalf("wrong guard: %v", err)
	}
	if _, _, err := fs.DetachMember("SpokeB"); err != nil {
		t.Fatalf("detaching the leaf member failed: %v", err)
	}
}

// TestClassNamesNoDuplicates pins the addVirtualMember registration
// fix: virtual class names (approximate superclasses, intersection
// subclasses) are registered once, not once per member.
func TestClassNamesNoDuplicates(t *testing.T) {
	l, r := fixture.Figure1Stores(fixture.Options{Scale: 3})
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), l, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, n := range res.View.ClassNames {
		seen[n]++
	}
	for n, c := range seen {
		if c > 1 {
			t.Errorf("class %s appears %d times in ClassNames", n, c)
		}
	}
}

// TestRecomputeISAMatchesBuildLattice pins that the canonical lattice
// recomputation used by membership changes reproduces buildLattice's
// output exactly on a freshly merged view — the property the detach
// round-trip (attach then detach restoring the founding pair's report
// byte for byte) rests on.
func TestRecomputeISAMatchesBuildLattice(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"figure1", func() (*Result, error) {
			l, r := fixture.Figure1Stores(fixture.Options{Scale: 3})
			return Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), l, r, 1)
		}},
		{"figure1-original", func() (*Result, error) {
			l, r := fixture.Figure1Stores(fixture.Options{})
			return Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), l, r, 1)
		}},
		{"personnel", func() (*Result, error) {
			d1, d2 := fixture.PersonnelStores()
			return Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), d1, d2, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			orig := append([]ISAEdge{}, res.View.ISA...)
			res.View.recomputeISA()
			if len(orig) != len(res.View.ISA) {
				t.Fatalf("edge count moved: %d -> %d", len(orig), len(res.View.ISA))
			}
			for i := range orig {
				if orig[i] != res.View.ISA[i] {
					t.Fatalf("edge %d moved: %v -> %v", i, orig[i], res.View.ISA[i])
				}
			}
		})
	}
}

// fig1Fed is the Figure 1 federation at core level: the founding
// CSLibrary+Bookseller pair integrated, the archive pair integrated on
// demand against the seed.
type fig1Fed struct {
	fs        *FedState
	lib, arch *store.Store
}

func newFig1Fed(t testing.TB, scale int) *fig1Fed {
	t.Helper()
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
	return foundFig1Fed(t, lib, bs, fixture.ArchiveStore(fixture.Options{Scale: scale}))
}

// foundFig1Fed integrates the founding pair over stores the caller
// built (and may share between federations: integration only reads
// them).
func foundFig1Fed(t testing.TB, lib, bs, arch *store.Store) *fig1Fed {
	t.Helper()
	memo := logic.NewMemo()
	opts := Options{Memo: memo}
	res, err := IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &fig1Fed{fs: NewFedState(res, "CSLibrary", opts, memo), lib: lib, arch: arch}
}

// pair integrates the archive against the seed, as a third member's
// attach does before the graft.
func (f *fig1Fed) pair(t testing.TB) *Result {
	t.Helper()
	pair, err := IntegrateOptions(tm.Figure1Library(), tm.Figure1UnivArchive(), tm.Figure1ArchiveIntegration(), f.lib, f.arch, 1, f.fs.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func (f *fig1Fed) attach(t testing.TB) []string {
	t.Helper()
	changed, err := f.fs.AttachPair(f.pair(t), "UnivArchive", "CSLibrary")
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

func (f *fig1Fed) detach(t testing.TB) (changed, removed []string) {
	t.Helper()
	changed, removed, err := f.fs.DetachMember("UnivArchive")
	if err != nil {
		t.Fatal(err)
	}
	return changed, removed
}

// objectLine renders everything a snapshot reader can observe of one
// global object: attributes, classes and, per side, the sources of its
// constituents.
func objectLine(g *GObj) string {
	var parts []string
	for i := 0; i < len(g.Parts); {
		side := g.Parts[i].Side
		ms := g.PartsOf(side)
		srcs := make([]string, len(ms))
		for j, m := range ms {
			srcs[j] = m.Src.String()
		}
		parts = append(parts, fmt.Sprintf("%d:%s", side, strings.Join(srcs, ",")))
		i += len(ms)
	}
	sort.Strings(parts)
	return g.String() + " parts[" + strings.Join(parts, " ") + "]"
}

func ids(gs []*GObj) string {
	var b strings.Builder
	for _, g := range gs {
		fmt.Fprintf(&b, " %d", g.ID)
	}
	return b.String()
}

// dumpView renders the order-sensitive state of a view — object list,
// every extent, the lattice, the virtual-class member lists — in full,
// and the per-object detail and the reference table as digests (in full
// too when detail is set).
func dumpView(v *GlobalView, detail bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objects:%s\n", ids(v.Objects))
	for _, n := range v.ClassNames {
		fmt.Fprintf(&b, "class %s:%s\n", n, ids(v.Extent(n)))
	}
	for _, e := range v.ISA {
		fmt.Fprintf(&b, "isa %s < %s\n", e.Sub, e.Super)
	}
	for _, vs := range v.VirtualSubclasses {
		fmt.Fprintf(&b, "vsub %s = %s ^ %s: %v\n", vs.Name, vs.LocalClass, vs.RemoteClass, vs.MemberIDs)
	}
	for _, as := range v.ApproxSupers {
		fmt.Fprintf(&b, "asup %s >= %s u %s: %v\n", as.Name, as.LocalClass, as.RemoteClass, as.MemberIDs)
	}
	var objs, refs []string
	for _, g := range v.Objects {
		objs = append(objs, objectLine(g))
	}
	for r, g := range v.byRef {
		refs = append(refs, fmt.Sprintf("%s -> g%d", r, g.ID))
	}
	sort.Strings(refs)
	for _, sec := range []struct {
		name  string
		lines []string
	}{{"object", objs}, {"ref", refs}} {
		body := strings.Join(sec.lines, "\n")
		fmt.Fprintf(&b, "%ss: %d sha256 %x\n", sec.name, len(sec.lines), sha256.Sum256([]byte(body)))
		if detail {
			for _, l := range sec.lines {
				fmt.Fprintf(&b, "  %s %s\n", sec.name, l)
			}
		}
	}
	return b.String()
}

// frozen is the deep image of the objects a published snapshot may still
// hold: every *GObj reachable from the view at one moment, rendered.
type frozen map[*GObj]string

func freeze(v *GlobalView) frozen {
	out := frozen{}
	for _, g := range v.Objects {
		out[g] = objectLine(g)
	}
	return out
}

// checkIntact asserts no frozen object was written to, and returns the
// IDs of those the live view has replaced or dropped.
func (fz frozen) checkIntact(t *testing.T, v *GlobalView, when string) []int {
	t.Helper()
	var replaced []int
	for g, was := range fz {
		if now := objectLine(g); now != was {
			t.Errorf("%s: frozen original g%d was mutated:\n  was %s\n  now %s", when, g.ID, was, now)
		}
		if live, ok := v.ByID(g.ID); !ok || live != g {
			replaced = append(replaced, g.ID)
		}
	}
	sort.Ints(replaced)
	return replaced
}

// checkViewInvariants asserts what every reader of the live view relies
// on: objects ascending by ID, extents holding exactly the live objects
// that claim the class, virtual member lists naming their extents, and
// the reference table resolving every identity and constituent to the
// live object.
func checkViewInvariants(t *testing.T, v *GlobalView, when string) {
	t.Helper()
	for i, g := range v.Objects {
		if i > 0 && v.Objects[i-1].ID >= g.ID {
			t.Errorf("%s: v.Objects not ascending at %d: g%d then g%d", when, i, v.Objects[i-1].ID, g.ID)
		}
		if live, ok := v.ByID(g.ID); !ok || live != g {
			t.Errorf("%s: identity of g%d does not resolve to the live object", when, g.ID)
		}
		for _, m := range g.Parts {
			if cur, ok := v.byRef[m.Src]; !m.Virtual && (!ok || cur != g) {
				t.Errorf("%s: constituent %s of g%d does not resolve to it", when, m.Src, g.ID)
			}
		}
		for _, cls := range g.Classes {
			if _, ok := v.classExt[cls]; !ok {
				t.Errorf("%s: g%d claims unregistered class %s", when, g.ID, cls)
			}
		}
	}
	for r, g := range v.byRef {
		if live, ok := v.ByID(g.ID); !ok || live != g {
			t.Errorf("%s: reference %s resolves to a stale g%d", when, r, g.ID)
		}
	}
	for cls, ext := range v.classExt {
		members := 0
		for _, g := range v.Objects {
			if g.InClass(cls) {
				members++
			}
		}
		if members != len(ext) {
			t.Errorf("%s: extent %s holds %d objects, %d live objects claim it", when, cls, len(ext), members)
		}
		for _, g := range ext {
			if live, ok := v.ByID(g.ID); !ok || live != g || !g.InClass(cls) {
				t.Errorf("%s: extent %s holds g%d, which is stale or does not claim it", when, cls, g.ID)
			}
		}
	}
	memberIDs := map[string][]int{}
	for _, vs := range v.VirtualSubclasses {
		memberIDs[vs.Name] = vs.MemberIDs
	}
	for _, as := range v.ApproxSupers {
		memberIDs[as.Name] = as.MemberIDs
	}
	for name, got := range memberIDs {
		var want []int
		for _, g := range v.Extent(name) {
			want = append(want, g.ID)
		}
		sort.Ints(want)
		sorted := append([]int{}, got...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, want) {
			t.Errorf("%s: MemberIDs of %s = %v, extent holds %v", when, name, got, want)
		}
	}
}

// TestFederationGraftRetractionGolden pins a membership change against
// the commit before the batched rewrite: after the founding pair, after
// the incremental attach and after the detach, the object list, every
// extent, every MemberIDs list, the lattice, the reference table and
// the changed/removed lists handed to Rebind are element for element
// what that commit produced; every object a snapshot could hold stays
// byte-for-byte frozen while the live view holds clones for exactly the
// objects that commit cloned; and attaching again after the detach
// reports what the first attach reported.
func TestFederationGraftRetractionGolden(t *testing.T) {
	for _, scale := range []int{0, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			f := newFig1Fed(t, scale)
			v := f.fs.Res.View
			detail := scale == 0
			var b strings.Builder
			stage := func(name string) {
				checkViewInvariants(t, v, name)
				fmt.Fprintf(&b, "== %s ==\n%s", name, dumpView(v, detail))
			}
			stage("founding pair")

			founding := freeze(v)
			changed := f.attach(t)
			fmt.Fprintf(&b, "attach changed: %v\n", changed)
			fmt.Fprintf(&b, "attach cloned: %v\n", founding.checkIntact(t, v, "after attach"))
			stage("attached")
			report := f.fs.Report()

			attached := freeze(v)
			changed, removed := f.detach(t)
			fmt.Fprintf(&b, "detach changed: %v removed: %v\n", changed, removed)
			founding.checkIntact(t, v, "after detach")
			fmt.Fprintf(&b, "detach cloned or dropped: %v\n", attached.checkIntact(t, v, "after detach"))
			stage("detached")

			detached := freeze(v)
			f.attach(t)
			detached.checkIntact(t, v, "after re-attach")
			checkViewInvariants(t, v, "re-attached")
			if again := f.fs.Report(); again != report {
				t.Errorf("attach, detach, attach reports differently from the first attach:\n%s\nvs\n%s", again, report)
			}
			checkGolden(t, fmt.Sprintf("membership_scale%d.golden", scale), b.String())
		})
	}
}

// TestFederationMiniGraftGolden is the same pin on the hub-and-spokes
// unit fixture, whose third pair's rule navigates a reference, in both
// founding header orientations.
func TestFederationMiniGraftGolden(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		t.Run(fmt.Sprintf("reversed=%v", reversed), func(t *testing.T) {
			fs, _ := buildMiniFed(t, "Hub", reversed)
			v := fs.Res.View
			checkViewInvariants(t, v, "attached")
			attached := freeze(v)
			out := "== attached ==\n" + dumpView(v, true)
			changed, removed, err := fs.DetachMember("SpokeB")
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("detach changed: %v removed: %v\n", changed, removed)
			out += fmt.Sprintf("detach cloned or dropped: %v\n", attached.checkIntact(t, v, "after detach"))
			checkViewInvariants(t, v, "detached")
			out += "== detached ==\n" + dumpView(v, true)
			checkGolden(t, fmt.Sprintf("membership_mini_reversed_%v.golden", reversed), out)
		})
	}
}

// TestMembershipCycleAllocBound is the deterministic half of the
// membership-change cost guard: one full cycle at Scale 200 — founding
// pair, archive pair, graft, retraction — made 35 173 allocations at
// the commit before global objects kept their constituents and classes
// in copy-on-write slices (15 720 after); it must stay at or under 51 %
// of the former. Under the race detector the same cycle allocates about
// 15 % more (18 011), so the bound is not checked there.
func TestMembershipCycleAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count")
	}
	const parentAllocs = 35_173
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: 200})
	arch := fixture.ArchiveStore(fixture.Options{Scale: 200})
	got := testing.AllocsPerRun(3, func() {
		f := foundFig1Fed(t, lib, bs, arch)
		f.attach(t)
		f.detach(t)
	})
	if limit := 0.51 * parentAllocs; got > limit {
		t.Errorf("a membership cycle at Scale 200 makes %.0f allocations, limit %.0f (51%% of %d)", got, limit, parentAllocs)
	}
}

// TestMembershipChangeScalesLinearly is the other half: the graft plus
// the retraction, best of five, may cost at most 8x as much time and
// 4.5x as many allocations at Scale 1000 as at Scale 250. Linear work
// is about 4x (4.7x measured in time); one scan of the view per touched
// object, which this guards against, tends to 16x (7.4x measured at
// these scales, where the scans were half the cost). The allocation
// ratio reads no clock. Timing, so not under -short or the race
// detector.
func TestMembershipChangeScalesLinearly(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	best := func(scale int) (time.Duration, uint64) {
		lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
		arch := fixture.ArchiveStore(fixture.Options{Scale: scale})
		best, fewest := time.Duration(math.MaxInt64), uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := 0; i < 5; i++ {
			f := foundFig1Fed(t, lib, bs, arch)
			pair := f.pair(t)
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			start := time.Now()
			if _, err := f.fs.AttachPair(pair, "UnivArchive", "CSLibrary"); err != nil {
				t.Fatal(err)
			}
			f.detach(t)
			d := time.Since(start)
			runtime.ReadMemStats(&ms)
			best, fewest = min(best, d), min(fewest, ms.Mallocs-mallocs)
		}
		return best, fewest
	}
	small, smallAllocs := best(250)
	large, largeAllocs := best(1000)
	if ratio := float64(largeAllocs) / float64(smallAllocs); ratio > 4.5 {
		t.Errorf("graft+retraction: %d allocations at Scale 250, %d at Scale 1000: %.2fx for 4x the objects, limit 4.5x", smallAllocs, largeAllocs, ratio)
	} else {
		t.Logf("graft+retraction: %d allocations at Scale 250, %d at Scale 1000: %.2fx", smallAllocs, largeAllocs, ratio)
	}
	if ratio := float64(large) / float64(small); ratio > 8 {
		t.Errorf("graft+retraction: %v at Scale 250, %v at Scale 1000: %.1fx for 4x the objects, limit 8x", small, large, ratio)
	} else {
		t.Logf("graft+retraction: %v at Scale 250, %v at Scale 1000: %.1fx", small, large, ratio)
	}
}
