package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/tm"
)

// N-way federation (DESIGN.md §9): the pairwise pipeline stays the unit
// of integration — every non-seed member is attached by ONE pair
// integration against an existing member — and this file folds pair
// results into a single live combined state incrementally:
//
//   - AttachPair grafts a freshly integrated pair onto the combined
//     view: constituents of already-known store objects join their
//     existing global object (copy-on-write, so snapshot readers keep
//     the frozen pre-attach image), unknown objects become new global
//     objects, class memberships and the new member's classes are
//     unioned under frozen global names, and the pair's derived
//     constraints merge into the combined Derivation tagged with their
//     pair provenance.
//   - DetachMember reverses exactly one pair: the member's constituents,
//     attribute contributions and classes are stripped, its pair's
//     constraints are retracted by provenance (a constraint survives iff
//     a remaining pair also derived it), and affected merged objects are
//     reclassified against the remaining rules.
//
// Everything here mutates the combined Result in place and must run
// under the view engine's Rebind (write lock + constraint-cache lock);
// the solver-heavy pair integration itself runs before, outside any
// lock. No solver queries are issued during a graft or a detach — the
// incremental cost of a membership change is the new pair's own
// derivation, nothing else (pinned by the federation tests via
// logic.CacheStats / view.CacheStats.SolverQueries).

// PairContrib is the retained record of one pair integration inside a
// federation, with class names already remapped to the combined view's
// frozen vocabulary. The combined Derivation is a deterministic merge of
// the contributions in attach order, so retraction (detach) rebuilds it
// from the surviving contributions without consulting the solver.
type PairContrib struct {
	// Tag identifies the pair by its attached member's database name
	// (each non-seed member is attached by exactly one pair).
	Tag string
	// Base is the existing member the pair integrated against.
	Base string
	// Globals holds the pair's derived global constraints (fed names).
	Globals []GlobalConstraint
	// Conflicts and Notes are the pair derivation's findings.
	Conflicts []Conflict
	Notes     []string
	// DerivedOnSim maps the pair's rule names to their §3 derived
	// constraints (namespaced "Tag/rule" in the merged Derivation).
	DerivedOnSim map[string][]expr.Node
	// ConformedCons renders the pair's conformed constraints (§4), for
	// the federated report.
	ConformedCons []string
	// Consts and Types are the pair's conformed constants and attribute
	// typing, re-merged (first pair wins on collisions) when membership
	// changes.
	Consts map[string]object.Value
	Types  map[string]object.Type

	// simRules are the fed-side rule clones this pair registered in the
	// combined Spec (removed verbatim on detach).
	simRules []*SimRule
	// newClasses are class names this graft registered in the combined
	// view (the attached member's classes plus base classes it first
	// populated); removed on detach when their extents empty.
	newClasses []string
	// virtualNames are intersection-subclass and approximate-superclass
	// names this pair contributed.
	virtualNames []string
	// addedAttrs records, per combined object ID, the attribute names
	// this graft added (absent before). Detach removes them and
	// re-derives any that remaining constituents still carry.
	addedAttrs map[int][]string
	// addedParts records base-side constituents this graft introduced
	// for objects the base store held but the combined view had not yet
	// seen through this pair's base.
	addedParts map[int][]object.Ref
	// confRefs lists the constituent references this graft registered in
	// the combined Conformed's deref table (so rule conditions that
	// navigate references resolve the member's objects); removed on
	// detach.
	confRefs []object.Ref
	// newConsts marks whether the pair added constant names (forces
	// whole-view republication: any plan could reference them).
	newConsts bool
}

// FedState is the integration-state half of a federation: the combined
// Result evolved in place across membership changes, the per-pair
// contributions, and the shared reasoning memo. The serving half (store
// registry, query engine) lives in the top-level interopdb.Federation;
// FedState's mutating methods must be called under view.Engine.Rebind.
type FedState struct {
	// Res is the combined integration result. It starts as the first
	// pair's result verbatim (so a two-member federation is
	// byte-identical to Integrate) and is evolved in place from the
	// third member on.
	Res *Result
	// SeedName is the seed member's database name. The seed can never
	// detach (it anchors the combined state), whichever header
	// orientation the founding integration spec used.
	SeedName string
	// Opts are the pipeline options every pair integration runs under.
	Opts Options
	// Memo is the shared verdict cache (see logic.Memo).
	Memo *logic.Memo
	// Contribs are the per-pair contributions in attach order;
	// Contribs[0] is the founding pair.
	Contribs []*PairContrib
}

// NewFedState wraps the founding pair's integration result. res must be
// a fresh pairwise Result (the federation owns it from here on);
// seedName names the member attached first.
func NewFedState(res *Result, seedName string, opts Options, memo *logic.Memo) *FedState {
	return &FedState{Res: res, SeedName: seedName, Opts: opts, Memo: memo}
}

// ensureFed converts the combined state to federated resolution: member
// slots for the founding pair, frozen global names for every conformed
// class, and the founding pair's contribution record. Idempotent; a
// two-member federation that never attaches a third member never enters
// fed mode, keeping its Result byte-identical to the pairwise pipeline.
func (f *FedState) ensureFed() {
	c := f.Res.Conformed
	if c.Fed != nil {
		return
	}
	v := f.Res.View
	fed := &FedInfo{
		Names:   []string{c.Spec.Local.Schema.Name, c.Spec.Remote.Schema.Name},
		Schemas: []*schema.Database{c.LocalSchema, c.RemoteSchema},
		Specs:   []*tm.DatabaseSpec{c.Spec.Local, c.Spec.Remote},
		Active:  []bool{true, true},
	}
	names := map[Side]map[string]string{}
	for _, side := range []Side{LocalSide, RemoteSide} {
		m := map[string]string{}
		for _, cls := range c.SchemaOf(side).Classes() {
			m[cls.Name] = v.GlobalName(side, cls.Name)
		}
		names[side] = m
	}
	c.Fed = fed
	v.fedNames = names

	// The founding pair's contribution: its derivation outputs verbatim
	// (class names are already the combined names). The tag is the
	// founding pair's NON-seed member, whichever header slot it used —
	// tags identify detachable members, and the seed never detaches.
	tag, base := c.Spec.Remote.Schema.Name, c.Spec.Local.Schema.Name
	if tag == f.SeedName {
		tag, base = base, tag
	}
	contrib := &PairContrib{
		Tag:          tag,
		Base:         base,
		Globals:      append([]GlobalConstraint{}, f.Res.Derivation.Global...),
		Conflicts:    append([]Conflict{}, f.Res.Derivation.Conflicts...),
		Notes:        append([]string{}, f.Res.Derivation.Notes...),
		DerivedOnSim: f.Res.Derivation.DerivedOnSim,
		Consts:       c.Consts,
		Types:        c.Types,
		simRules:     append([]*SimRule{}, c.Spec.SimRules...),
	}
	for _, con := range c.Cons {
		contrib.ConformedCons = append(contrib.ConformedCons, con.String())
	}
	for _, vs := range v.VirtualSubclasses {
		contrib.virtualNames = append(contrib.virtualNames, vs.Name)
	}
	for _, as := range v.ApproxSupers {
		contrib.virtualNames = append(contrib.virtualNames, as.Name)
	}
	f.Contribs = append(f.Contribs, contrib)
}

// AttachPair grafts a pair integration (pairRes, integrating newMember
// against existing member base) onto the combined state. It returns the
// global classes whose serving state changed — new classes, classes of
// touched objects, classes whose constraint set changed — so the engine
// republishes only those; every other class keeps its snapshot, indexes
// and cached plans. Must run under view.Engine.Rebind.
func (f *FedState) AttachPair(pairRes *Result, newMember, base string) (changed []string, err error) {
	f.ensureFed()
	c := f.Res.Conformed
	v := f.Res.View
	fed := c.Fed
	pc := pairRes.Conformed

	baseSide, ok := fed.SideOf(base)
	if !ok {
		return nil, fmt.Errorf("attach %s: base member %s is not part of the federation", newMember, base)
	}
	if _, dup := fed.SideOf(newMember); dup {
		return nil, fmt.Errorf("attach %s: member already attached", newMember)
	}
	if len(pc.Spec.DescRules) > 0 {
		// Descriptivity conformation objectifies values into virtual
		// constituents whose synthetic references are pair-scoped; they
		// cannot be grafted onto an existing combined view soundly.
		return nil, fmt.Errorf("attach %s: integration specs with descriptivity rules are only supported for the founding pair", newMember)
	}

	var pairNewSide Side
	switch newMember {
	case pc.Spec.Local.Schema.Name:
		pairNewSide = LocalSide
	case pc.Spec.Remote.Schema.Name:
		pairNewSide = RemoteSide
	default:
		return nil, fmt.Errorf("attach %s: pair result does not involve the member", newMember)
	}
	pairBaseSide := pairNewSide.Other()
	if pc.Spec.DB(pairBaseSide).Schema.Name != base {
		return nil, fmt.Errorf("attach %s: pair result pairs it with %s, not base %s",
			newMember, pc.Spec.DB(pairBaseSide).Schema.Name, base)
	}

	newSide := Side(len(fed.Names))
	fedSideOf := func(ps Side) Side {
		if ps == pairNewSide {
			return newSide
		}
		return baseSide
	}

	contrib := &PairContrib{
		Tag:          newMember,
		Base:         base,
		DerivedOnSim: pairRes.Derivation.DerivedOnSim,
		Consts:       pc.Consts,
		Types:        pc.Types,
		addedAttrs:   map[int][]string{},
		addedParts:   map[int][]object.Ref{},
	}
	for _, con := range pc.Cons {
		contrib.ConformedCons = append(contrib.ConformedCons, con.String())
	}

	// --- Class-name mapping: pair-global names → frozen fed names -----
	taken := map[string]bool{}
	for _, n := range v.ClassNames {
		taken[n] = true
	}
	rename := map[string]string{}
	for _, cls := range pc.SchemaOf(pairBaseSide).Classes() {
		fedN, ok := v.fedNames[baseSide][cls.Name]
		if !ok {
			fedN = v.GlobalName(baseSide, cls.Name)
			v.fedNames[baseSide][cls.Name] = fedN
		}
		rename[pairRes.View.GlobalName(pairBaseSide, cls.Name)] = fedN
	}
	newNames := map[string]string{}
	for _, cls := range pc.SchemaOf(pairNewSide).Classes() {
		pgn := pairRes.View.GlobalName(pairNewSide, cls.Name)
		cand := pgn
		if taken[cand] {
			cand = newMember + "." + cls.Name
		}
		if taken[cand] {
			return nil, fmt.Errorf("attach %s: cannot assign a global name for class %s", newMember, cls.Name)
		}
		rename[pgn] = cand
		newNames[cls.Name] = cand
		taken[cand] = true
	}
	// Name assignment validated: only now extend the membership tables
	// (an error above must leave the federation exactly as it was).
	fed.Names = append(fed.Names, newMember)
	fed.Schemas = append(fed.Schemas, pc.SchemaOf(pairNewSide))
	fed.Specs = append(fed.Specs, pc.Spec.DB(pairNewSide))
	fed.Active = append(fed.Active, true)
	v.fedNames[newSide] = newNames
	for _, vs := range pairRes.View.VirtualSubclasses {
		name := rename[vs.LocalClass] + "_" + strings.ReplaceAll(rename[vs.RemoteClass], ".", "_")
		if taken[name] {
			name = newMember + "." + name
		}
		rename[vs.Name] = name
		taken[name] = true
	}
	for _, as := range pairRes.View.ApproxSupers {
		name := as.Name
		if taken[name] {
			name = newMember + "." + name
		}
		rename[as.Name] = name
		taken[name] = true
	}
	mapName := func(n string) string {
		if fn, ok := rename[n]; ok {
			return fn
		}
		return n
	}

	// --- Object graft -------------------------------------------------
	// The graft first determines everything it touches — the existing
	// object hosting each pair object: the lowest-ID one holding any of
	// its constituents — and detaches that set as ONE batch; only then
	// does it write, and only to clones and to objects it creates.
	hosts := make([]*GObj, len(pairRes.View.Objects))
	var batch []*GObj
	for i, pg := range pairRes.View.Objects {
		for _, ps := range []Side{LocalSide, RemoteSide} {
			for _, m := range pg.Parts[ps] {
				if m.Virtual {
					continue
				}
				if g, ok := v.byRef[m.Src]; ok && (hosts[i] == nil || g.ID < hosts[i].ID) {
					hosts[i] = g
				}
			}
		}
		if hosts[i] != nil {
			batch = append(batch, hosts[i])
		}
	}
	clones := v.detachAll(batch)
	// The dictionary grows once, by every name the pair's view slots.
	v.dict = v.dict.with(pairRes.View.dict.names...)
	// owned are the objects no published snapshot holds: this graft's
	// clones and the objects it creates.
	owned := make(map[*GObj]bool, len(pairRes.View.Objects))
	var touched []*GObj
	for _, g := range clones {
		owned[g] = true
		touched = append(touched, g)
	}
	pairToFed := map[int]*GObj{}
	cloneCObj := func(m *CObj, side Side) *CObj {
		cm := &CObj{
			Src: m.Src, Side: side, Class: m.Class, Virtual: m.Virtual,
			slotted: slotted{dict: m.dict, vals: slices.Clone(m.vals)},
		}
		// Register the clone in the combined Conformed's deref table, so
		// rule conditions that navigate references (simRuleHolds during
		// reclassification) resolve the member's objects. The CLONE is
		// registered — not the pair's original — because ApplyUpdate fans
		// new values to the clones in GObj.Parts, and the conformed view
		// must see them.
		if !cm.Virtual {
			if _, exists := c.byRef[cm.Src]; !exists {
				c.byRef[cm.Src] = cm
				contrib.confRefs = append(contrib.confRefs, cm.Src)
			}
		}
		return cm
	}
	for i, pg := range pairRes.View.Objects {
		if hosts[i] == nil {
			g := &GObj{
				ID:      v.nextObjectID(),
				Parts:   map[Side][]*CObj{},
				Classes: map[string]bool{},
			}
			v.copyAttrs(g, pg)
			for _, ps := range []Side{LocalSide, RemoteSide} {
				fs := fedSideOf(ps)
				for _, m := range pg.Parts[ps] {
					cm := cloneCObj(m, fs)
					g.Parts[fs] = append(g.Parts[fs], cm)
					if !cm.Virtual {
						v.byRef[cm.Src] = g
					}
					if fs == baseSide {
						// A base store object the combined view had not
						// seen before this pair surfaced it; recorded so
						// detach returns the view to its pre-attach
						// object set exactly.
						contrib.addedParts[g.ID] = append(contrib.addedParts[g.ID], m.Src)
					}
				}
			}
			v.Objects = append(v.Objects, g)
			v.byRef[g.Identity()] = g
			pairToFed[pg.ID] = g
			owned[g] = true
			continue
		}
		g := clones[hosts[i]]
		pairToFed[pg.ID] = g
		for _, m := range pg.Parts[pairNewSide] {
			cm := cloneCObj(m, newSide)
			g.Parts[newSide] = append(g.Parts[newSide], cm)
			if !cm.Virtual {
				v.byRef[cm.Src] = g
			}
		}
		for _, m := range pg.Parts[pairBaseSide] {
			if m.Virtual {
				continue
			}
			if _, known := v.byRef[m.Src]; known {
				continue
			}
			cm := cloneCObj(m, baseSide)
			g.Parts[baseSide] = append(g.Parts[baseSide], cm)
			v.byRef[m.Src] = g
			contrib.addedParts[g.ID] = append(contrib.addedParts[g.ID], m.Src)
		}
		var attrNames []string
		pg.Range(func(a string, _ object.Value) {
			if _, have := g.Get(a); !have {
				attrNames = append(attrNames, a)
			}
		})
		sort.Strings(attrNames)
		for _, a := range attrNames {
			val, _ := pg.Get(a)
			v.setAttr(g, a, val)
			contrib.addedAttrs[g.ID] = append(contrib.addedAttrs[g.ID], a)
		}
	}

	// --- Class membership union --------------------------------------
	for _, pcn := range pairRes.View.ClassNames {
		fedN := mapName(pcn)
		org, hasOrg := pairRes.View.Origin[pcn]
		if _, exists := v.Origin[fedN]; !exists && hasOrg {
			v.Origin[fedN] = struct {
				Side  Side
				Class string
			}{fedSideOf(org.Side), org.Class}
			if v.classExt[fedN] == nil {
				v.ClassNames = append(v.ClassNames, fedN)
				v.classExt[fedN] = []*GObj{}
			}
			contrib.newClasses = append(contrib.newClasses, fedN)
		}
		for _, pm := range pairRes.View.Extent(pcn) {
			g := pairToFed[pm.ID]
			if g == nil || g.Classes[fedN] {
				continue
			}
			g.Classes[fedN] = true
			if _, seen := v.classExt[fedN]; !seen && v.Origin[fedN].Class == "" {
				// Virtual class not yet registered.
				v.ClassNames = append(v.ClassNames, fedN)
			}
			v.classExt[fedN] = append(v.classExt[fedN], g)
		}
	}

	// --- Virtual structures ------------------------------------------
	mapIDs := func(ids []int) []int {
		out := make([]int, 0, len(ids))
		for _, id := range ids {
			if g := pairToFed[id]; g != nil {
				out = append(out, g.ID)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, vs := range pairRes.View.VirtualSubclasses {
		nvs := VirtualSubclass{
			Name:        rename[vs.Name],
			LocalClass:  mapName(vs.LocalClass),
			RemoteClass: mapName(vs.RemoteClass),
			MemberIDs:   mapIDs(vs.MemberIDs),
		}
		v.VirtualSubclasses = append(v.VirtualSubclasses, nvs)
		contrib.virtualNames = append(contrib.virtualNames, nvs.Name)
	}
	approxStart := len(v.ApproxSupers)
	for _, as := range pairRes.View.ApproxSupers {
		nas := ApproxSuper{
			Name:        rename[as.Name],
			LocalClass:  as.LocalClass,
			RemoteClass: as.RemoteClass,
			MemberIDs:   mapIDs(as.MemberIDs),
		}
		v.ApproxSupers = append(v.ApproxSupers, nas)
		contrib.virtualNames = append(contrib.virtualNames, nas.Name)
	}

	// --- Similarity rules (fed-side clones; each carries the conds its
	// pair's conformation stored on it) -------------------------------
	for _, r := range pc.Spec.SimRules {
		clone := *r
		clone.SrcSide = fedSideOf(r.SrcSide)
		clone.tgtSide = fedSideOf(r.TargetSide())
		clone.hasTgtSide = true
		if clone.Virtual != "" {
			clone.Virtual = mapName(r.Virtual)
		}
		c.Spec.SimRules = append(c.Spec.SimRules, &clone)
		contrib.simRules = append(contrib.simRules, &clone)
	}

	// ext(Cv) ⊇ ext(C) holds on the COMBINED view: target-class members
	// the pair integration could not see (sourced from other members,
	// e.g. pair-1 Sim imports) join the approximate superclass too.
	// Affected objects are detached first, as one batch per rule — they
	// are reachable from published snapshots and gain a class membership
	// here.
	for _, r := range contrib.simRules {
		if !r.Approximate() {
			continue
		}
		tgt := v.GlobalName(r.TargetSide(), r.Target)
		var published []*GObj
		for _, g := range v.classExt[tgt] {
			if !g.Classes[r.Virtual] && !owned[g] {
				published = append(published, g)
			}
		}
		for _, g := range v.detachAll(published) {
			owned[g] = true
			touched = append(touched, g)
		}
		var extra []int
		for _, g := range v.classExt[tgt] {
			if g.Classes[r.Virtual] {
				continue
			}
			g.Classes[r.Virtual] = true
			v.classExt[r.Virtual] = append(v.classExt[r.Virtual], g)
			extra = append(extra, g.ID)
		}
		if len(extra) == 0 {
			continue
		}
		for i := approxStart; i < len(v.ApproxSupers); i++ {
			if v.ApproxSupers[i].Name == r.Virtual {
				v.ApproxSupers[i].MemberIDs = dedupInts(append(v.ApproxSupers[i].MemberIDs, extra...))
				break
			}
		}
	}

	// --- Constants and typing (copy-on-write: published snapshots keep
	// the map they captured) ------------------------------------------
	newConsts := make(map[string]object.Value, len(c.Consts)+len(pc.Consts))
	for k, val := range c.Consts {
		newConsts[k] = val
	}
	for k, val := range pc.Consts {
		if _, have := newConsts[k]; !have {
			newConsts[k] = val
			contrib.newConsts = true
		}
	}
	c.Consts = newConsts

	// --- Constraint contribution and combined derivation rebuild ------
	for _, gc := range pairRes.Derivation.Global {
		gcc := gc
		gcc.Classes = make([]string, len(gc.Classes))
		for i, cls := range gc.Classes {
			gcc.Classes[i] = mapName(cls)
		}
		contrib.Globals = append(contrib.Globals, gcc)
	}
	contrib.Conflicts = append([]Conflict{}, pairRes.Derivation.Conflicts...)
	contrib.Notes = append([]string{}, pairRes.Derivation.Notes...)
	f.Contribs = append(f.Contribs, contrib)
	f.rebuildDerivation()
	v.recomputeISA()
	v.refreshDecl()

	// --- Affected classes --------------------------------------------
	affected := map[string]bool{}
	if contrib.newConsts {
		// A new constant name can change the meaning of any predicate.
		for _, n := range v.ClassNames {
			affected[n] = true
		}
	}
	for _, n := range contrib.newClasses {
		affected[n] = true
	}
	for _, n := range contrib.virtualNames {
		affected[n] = true
	}
	for _, g := range touched {
		for cls := range g.Classes {
			affected[cls] = true
		}
	}
	for _, gc := range contrib.Globals {
		for _, cls := range gc.Classes {
			affected[cls] = true
		}
	}
	return sortedNames(affected), nil
}

// DetachMember reverses the pair that attached the member: constituents
// and attribute contributions are stripped (copy-on-write), objects left
// without constituents are removed, affected objects are reclassified
// against the remaining rules, the member's classes are deregistered,
// and every constraint whose provenance empties is retracted. It returns
// the classes whose serving state changed and the classes removed.
// Must run under view.Engine.Rebind.
func (f *FedState) DetachMember(name string) (changed, removed []string, err error) {
	c := f.Res.Conformed
	v := f.Res.View
	if c.Fed == nil {
		return nil, nil, fmt.Errorf("detach %s: federation has no incremental members", name)
	}
	if name == f.SeedName {
		return nil, nil, fmt.Errorf("detach %s: member is the federation seed and cannot be detached", name)
	}
	side, ok := c.Fed.SideOf(name)
	if !ok {
		return nil, nil, fmt.Errorf("detach %s: not an attached member", name)
	}
	idx := -1
	for i, pc := range f.Contribs {
		if pc.Tag == name {
			idx = i
		}
		if pc.Base == name {
			return nil, nil, fmt.Errorf("detach %s: member is the base of the %s pair — detach %s first", name, pc.Tag, pc.Tag)
		}
	}
	if idx < 0 {
		return nil, nil, fmt.Errorf("detach %s: no pair contribution recorded for member", name)
	}
	contrib := f.Contribs[idx]

	// --- Remove the pair's rules and virtual structures ---------------
	isPairRule := map[*SimRule]bool{}
	for _, r := range contrib.simRules {
		isPairRule[r] = true
	}
	kept := c.Spec.SimRules[:0]
	for _, r := range c.Spec.SimRules {
		if !isPairRule[r] {
			kept = append(kept, r)
		}
	}
	c.Spec.SimRules = kept
	isPairVirtual := map[string]bool{}
	for _, n := range contrib.virtualNames {
		isPairVirtual[n] = true
	}
	keptVS := v.VirtualSubclasses[:0]
	for _, vs := range v.VirtualSubclasses {
		if !isPairVirtual[vs.Name] {
			keptVS = append(keptVS, vs)
		}
	}
	v.VirtualSubclasses = keptVS
	keptAS := v.ApproxSupers[:0]
	for _, as := range v.ApproxSupers {
		if !isPairVirtual[as.Name] {
			keptAS = append(keptAS, as)
		}
	}
	v.ApproxSupers = keptAS

	// --- Strip objects (copy-on-write) --------------------------------
	doomedClass := map[string]bool{}
	for _, n := range contrib.newClasses {
		doomedClass[n] = true
	}
	for _, n := range contrib.virtualNames {
		doomedClass[n] = true
	}
	// Classes whose origin member departs (covers the founding pair's
	// member, whose contribution predates per-graft bookkeeping).
	for cls, org := range v.Origin {
		if org.Side == side {
			doomedClass[cls] = true
		}
	}
	affected := map[string]bool{}
	var touched []*GObj
	for _, g := range v.Objects {
		hit := len(g.Parts[side]) > 0 ||
			len(contrib.addedParts[g.ID]) > 0 || len(contrib.addedAttrs[g.ID]) > 0
		if !hit {
			for cls := range g.Classes {
				if doomedClass[cls] {
					hit = true
					break
				}
			}
		}
		if hit {
			touched = append(touched, g)
		}
	}
	// The touched set is detached as one batch; what the strip takes out
	// of the view — emptied objects, memberships lost to the departed
	// rules — is collected and retracted in one pass after the loop.
	clones := v.detachAll(touched)
	var gone retraction
	env := c.ruleEnv()
	for _, orig := range touched {
		g := clones[orig]
		for cls := range g.Classes {
			affected[cls] = true
		}
		for _, m := range g.Parts[side] {
			if cur, ok := v.byRef[m.Src]; ok && cur == g {
				delete(v.byRef, m.Src)
			}
		}
		delete(g.Parts, side)
		for _, src := range contrib.addedParts[g.ID] {
			for s, ms := range g.Parts {
				for i, m := range ms {
					if m.Src == src {
						g.Parts[s] = append(ms[:i], ms[i+1:]...)
						if cur, ok := v.byRef[src]; ok && cur == g {
							delete(v.byRef, src)
						}
						break
					}
				}
			}
		}
		for _, a := range contrib.addedAttrs[g.ID] {
			// Re-derive from the remaining constituents (deterministic:
			// ascending side, declaration order), in case another member
			// also carries the attribute. The name keeps its slot.
			var val object.Value
		rederive:
			for s := Side(0); int(s) < v.memberSlots(); s++ {
				for _, m := range g.Parts[s] {
					if mv, ok := m.Get(a); ok && mv.Kind() != object.KindNull {
						val = mv
						break rederive
					}
				}
			}
			v.setAttr(g, a, val)
		}
		parts := 0
		for _, ms := range g.Parts {
			parts += len(ms)
		}
		if parts == 0 {
			gone.doom(g)
			continue
		}
		if _, err := v.reclassify(g, &gone, env); err != nil {
			v.retract(&gone)
			return nil, nil, fmt.Errorf("detach %s: reclassifying g%d: %w", name, g.ID, err)
		}
		for cls := range g.Classes {
			affected[cls] = true
		}
	}
	v.retract(&gone)

	// --- Deregister the pair's classes (only once empty: a class kept
	// alive by surviving members stays, reclassified above) ------------
	removedSet := map[string]bool{}
	for cls := range doomedClass {
		if len(v.classExt[cls]) > 0 {
			affected[cls] = true
			continue
		}
		if _, registered := v.classExt[cls]; !registered {
			// Never materialized in the combined view.
			delete(v.Origin, cls)
			continue
		}
		delete(v.classExt, cls)
		delete(v.Origin, cls)
		removedSet[cls] = true
	}
	if len(removedSet) > 0 {
		keptNames := v.ClassNames[:0]
		for _, n := range v.ClassNames {
			if !removedSet[n] {
				keptNames = append(keptNames, n)
			}
		}
		v.ClassNames = keptNames
	}

	// --- Membership retirement ---------------------------------------
	c.Fed.Active[side] = false
	for _, ref := range contrib.confRefs {
		delete(c.byRef, ref)
	}
	f.Contribs = append(f.Contribs[:idx], f.Contribs[idx+1:]...)

	// Constants: re-merge from the surviving pairs in attach order.
	consts := map[string]object.Value{}
	for _, pc := range f.Contribs {
		for k, val := range pc.Consts {
			if _, have := consts[k]; !have {
				consts[k] = val
			}
		}
	}
	c.Consts = consts
	if contrib.newConsts {
		for _, n := range v.ClassNames {
			affected[n] = true
		}
	}

	f.rebuildDerivation()
	v.recomputeISA()
	v.refreshDecl()

	for _, gc := range contrib.Globals {
		for _, cls := range gc.Classes {
			if !removedSet[cls] {
				affected[cls] = true
			}
		}
	}
	for cls := range removedSet {
		delete(affected, cls)
	}
	return sortedNames(affected), sortedNames(removedSet), nil
}

// rebuildDerivation deterministically merges the surviving pair
// contributions into a fresh combined Derivation: contributions in
// attach order, duplicate constraints collapsed with their provenance
// unioned. No solver queries are issued — the expensive reasoning stays
// with the pair derivations that produced the contributions.
func (f *FedState) rebuildDerivation() {
	types := map[string]object.Type{}
	for _, pc := range f.Contribs {
		for k, t := range pc.Types {
			if _, have := types[k]; !have {
				types[k] = t
			}
		}
	}
	d := &Derivation{
		View:         f.Res.View,
		Checker:      &logic.Checker{Types: types, NoMemo: f.Opts.NoMemo, Memo: f.Memo},
		DerivedOnSim: map[string][]expr.Node{},
		unsafe:       map[ConKey]bool{},
		opts:         f.Opts,
	}
	for _, pc := range f.Contribs {
		for _, gc := range pc.Globals {
			addGlobalProvenance(d, gc, pc.Tag)
		}
		d.Conflicts = append(d.Conflicts, pc.Conflicts...)
		d.Notes = append(d.Notes, pc.Notes...)
		names := make([]string, 0, len(pc.DerivedOnSim))
		for n := range pc.DerivedOnSim {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d.DerivedOnSim[pc.Tag+"/"+n] = pc.DerivedOnSim[n]
		}
	}
	f.Res.Derivation = d
}

// addGlobalProvenance appends a constraint to the combined derivation,
// collapsing duplicates (same classes, scope, derivation and formula)
// into one entry whose provenance lists every contributing pair.
func addGlobalProvenance(d *Derivation, gc GlobalConstraint, tag string) {
	for i := range d.Global {
		have := &d.Global[i]
		if have.Derivation == gc.Derivation && have.Scope == gc.Scope &&
			expr.Equal(have.Expr, gc.Expr) && sameClasses(have.Classes, gc.Classes) {
			for _, t := range have.Provenance {
				if t == tag {
					return
				}
			}
			have.Provenance = append(have.Provenance, tag)
			return
		}
	}
	cp := gc
	cp.Provenance = []string{tag}
	d.Global = append(d.Global, cp)
}

// recomputeISA re-derives the subclass lattice from the current
// extents, mirroring buildLattice's construction exactly: extension-
// containment edges over every class except the intersection
// subclasses, then each intersection subclass's two parent edges in
// registration order. Deterministic, so a detach that restores the
// founding pair's extents restores its lattice byte for byte.
func (v *GlobalView) recomputeISA() {
	vsName := map[string]bool{}
	for _, vs := range v.VirtualSubclasses {
		vsName[vs.Name] = true
	}
	var names []string
	for _, n := range v.ClassNames {
		if !vsName[n] {
			names = append(names, n)
		}
	}
	edges := containmentEdges(names, v.extentSets(names))
	for _, vs := range v.VirtualSubclasses {
		edges = append(edges,
			ISAEdge{Sub: vs.Name, Super: vs.RemoteClass},
			ISAEdge{Sub: vs.Name, Super: vs.LocalClass},
		)
	}
	v.ISA = edges
}

// Report renders the federated account of the combined state: members,
// classes, lattice, constraints with pair provenance, conflicts and
// notes. The two-member federation keeps the pairwise Result.Report
// instead (the top-level Federation chooses).
func (f *FedState) Report() string {
	v := f.Res.View
	fed := f.Res.Conformed.Fed
	var b strings.Builder
	var members []string
	if fed != nil {
		for i, n := range fed.Names {
			if fed.Active[i] {
				members = append(members, n)
			}
		}
	} else {
		members = []string{f.Res.Spec.Local.Schema.Name, f.Res.Spec.Remote.Schema.Name}
	}
	fmt.Fprintf(&b, "=== Federation: %s ===\n", strings.Join(members, " + "))

	b.WriteString("\n-- Members --\n")
	for i, m := range members {
		if i == 0 {
			fmt.Fprintf(&b, "  %s (seed)\n", m)
			continue
		}
		for _, pc := range f.Contribs {
			if pc.Tag == m {
				fmt.Fprintf(&b, "  %s via %s+%s\n", m, pc.Base, pc.Tag)
			}
		}
	}

	b.WriteString("\n-- Global classes and lattice (§2.3) --\n")
	names := append([]string{}, v.ClassNames...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %s: %d objects\n", n, len(v.Extent(n)))
	}
	for _, e := range v.ISA {
		fmt.Fprintf(&b, "  %s isa %s\n", e.Sub, e.Super)
	}
	for _, vs := range v.VirtualSubclasses {
		fmt.Fprintf(&b, "  virtual subclass %s = %s ∩ %s (%d objects)\n",
			vs.Name, vs.LocalClass, vs.RemoteClass, len(vs.MemberIDs))
	}
	for _, as := range v.ApproxSupers {
		fmt.Fprintf(&b, "  virtual superclass %s ⊇ %s ∪ %s (%d objects)\n",
			as.Name, as.LocalClass, as.RemoteClass, len(as.MemberIDs))
	}

	b.WriteString("\n-- Global constraints (§5.2) --\n")
	for _, gc := range f.Res.Derivation.Global {
		if len(gc.Provenance) > 0 {
			fmt.Fprintf(&b, "  %s  (via %s)\n", gc.String(), strings.Join(gc.Provenance, ", "))
		} else {
			fmt.Fprintf(&b, "  %s\n", gc.String())
		}
	}

	if len(f.Res.Derivation.Conflicts) > 0 {
		b.WriteString("\n-- Conflicts --\n")
		for _, cf := range f.Res.Derivation.Conflicts {
			fmt.Fprintf(&b, "  %s\n", cf)
		}
	}
	if len(f.Res.Derivation.Notes) > 0 {
		b.WriteString("\n-- Notes --\n")
		for _, n := range f.Res.Derivation.Notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}

// TypesCompatible reports whether two attribute typings agree on every
// common path — the precondition for sharing a logic.Memo between the
// Checkers that use them.
func TypesCompatible(a, b map[string]object.Type) bool {
	for k, ta := range a {
		if tb, ok := b[k]; ok && ta.String() != tb.String() {
			return false
		}
	}
	return true
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
