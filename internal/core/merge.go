package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// GObj is a global (integrated) object: the merge of an equivalence class
// of conformed objects, with property values determined by the decision
// functions.
type GObj struct {
	ID    int
	Parts map[Side][]*CObj
	// slotted holds the object's attribute values by slot of the view
	// dictionary it was built on or last written through (slots.go).
	slotted
	// Classes holds the global class names the object belongs to.
	Classes map[string]bool

	// proj memoises the object's projections onto recent select lists
	// (project.go). A clone or a new object starts without one.
	proj atomic.Pointer[projMemo]
}

// Identity implements expr.Identifiable.
func (g *GObj) Identity() object.Ref {
	return object.Ref{DB: "global", OID: object.OID(g.ID)}
}

// Merged reports whether the object has constituents in at least two
// member databases (the two sides of a pairwise integration, any pair of
// members in a federated view).
func (g *GObj) Merged() bool {
	sides := 0
	for _, ms := range g.Parts {
		if len(ms) > 0 {
			sides++
		}
	}
	return sides >= 2
}

// String renders the object.
func (g *GObj) String() string {
	var classes []string
	for c := range g.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var keys []string
	g.Range(func(k string, _ object.Value) { keys = append(keys, k) })
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v, _ := g.Get(k)
		parts[i] = k + "=" + v.String()
	}
	return fmt.Sprintf("g%d{%s}(%s)", g.ID, strings.Join(classes, ","), strings.Join(parts, ","))
}

// ISAEdge is a derived subclass relationship in the global lattice.
type ISAEdge struct{ Sub, Super string }

// VirtualSubclass records an emergent intersection class (the paper's
// RefereedProceedings): objects similar to both a local and a remote
// class, where neither extension contains the other.
type VirtualSubclass struct {
	Name        string
	LocalClass  string
	RemoteClass string
	MemberIDs   []int
}

// ApproxSuper records the virtual common superclass created by an
// approximate-similarity rule.
type ApproxSuper struct {
	Name        string
	LocalClass  string // the Sim target side's class C
	RemoteClass string // the source class C'
	MemberIDs   []int
}

// GlobalView is the result of the merging phase: the integrated object
// set with its emergent classification.
type GlobalView struct {
	Conformed *Conformed
	Objects   []*GObj
	// classExt maps global class names to member objects.
	classExt map[string][]*GObj
	// Names of all global classes in deterministic order.
	ClassNames []string
	// Origin of plain global classes: side + conformed class.
	Origin map[string]struct {
		Side  Side
		Class string
	}
	ISA               []ISAEdge
	VirtualSubclasses []VirtualSubclass
	ApproxSupers      []ApproxSuper
	byRef             map[object.Ref]*GObj
	// nextID allocates global object IDs (lazily initialised past the
	// merge-time maximum; never reused after a delete).
	nextID int
	// fedNames, when non-nil (federated views), pins the global name of
	// every (member side, conformed class) pair. Names are assigned when
	// a member attaches and frozen for its lifetime, so membership
	// changes can never rename a class that queries, plans or indexes
	// already reference.
	fedNames map[Side]map[string]string
	// dict is the attribute dictionary the objects' values are slotted
	// by (slots.go): replaced by an extended copy, never changed.
	dict *AttrDict
	// decl maps each class with an origin to the attribute names that
	// origin declares, own and inherited: how Env and DeclaresAttr
	// answer the declared-attribute question. It is rebuilt, never
	// changed in place, whenever the set of origin classes changes, so a
	// snapshot may keep the table it captured.
	decl map[string]map[string]bool
	// fusePlans counts the fusion plans Merge compiled: one per shape of
	// constituents (fuse.go).
	fusePlans int
}

// memberSlots is the number of Side values the view's members occupy:
// the attach-ordered member slots of a federated view (detached slots
// included — their Parts are empty, so visiting them is a no-op), the
// fixed local/remote pair otherwise.
func (v *GlobalView) memberSlots() int {
	if f := v.Conformed.Fed; f != nil {
		return len(f.Schemas)
	}
	return 2
}

// Extent returns the members of a global class.
func (v *GlobalView) Extent(class string) []*GObj { return v.classExt[class] }

// GlobalName returns the global name of a conformed class: the plain name
// when unambiguous, otherwise qualified with the database name. In a
// federated view the frozen per-member name table decides first — names
// assigned at attach time survive later membership changes unchanged —
// and the ambiguity fallback counts every active member's schema.
func (v *GlobalView) GlobalName(side Side, class string) string {
	if v.fedNames != nil {
		if n, ok := v.fedNames[side][class]; ok {
			return n
		}
	}
	if f := v.Conformed.Fed; f != nil {
		declared := 0
		for i, db := range f.Schemas {
			if !f.Active[i] {
				continue
			}
			if _, ok := db.Class(class); ok {
				declared++
			}
		}
		if declared > 1 && int(side) < len(f.Names) {
			return f.Names[side] + "." + class
		}
		return class
	}
	_, inL := v.Conformed.LocalSchema.Class(class)
	_, inR := v.Conformed.RemoteSchema.Class(class)
	if inL && inR {
		return v.Conformed.Spec.DB(side).Schema.Name + "." + class
	}
	return class
}

// Deref resolves global and constituent references to global objects.
func (v *GlobalView) Deref(r object.Ref) (expr.Object, bool) {
	o, ok := v.byRef[r]
	return o, ok
}

// Env builds an evaluation environment over the global view. One Env
// serves any number of rows: rebind Self per row.
func (v *GlobalView) Env(self *GObj) *expr.Env {
	env := &expr.Env{
		Consts:   v.Conformed.Consts,
		Ext:      v.extObjs,
		Deref:    v.Deref,
		Declared: v,
	}
	if self != nil {
		env.Self = self
	}
	return env
}

// extObjs is Env's Ext: a class extension as expression objects.
func (v *GlobalView) extObjs(class string) []expr.Object {
	ext := v.Extent(class)
	out := make([]expr.Object, len(ext))
	for i, o := range ext {
		out[i] = o
	}
	return out
}

// Declares implements expr.Declarer for Env: attributes declared on any
// class the object belongs to are known (possibly null). A locally-kept
// publication classified under Proceedings via a Sim rule has no ref?
// value, and predicates over it must see null, not an unknown
// identifier.
func (v *GlobalView) Declares(self expr.Object, attr string) bool {
	g, ok := self.(*GObj)
	return ok && v.DeclaresAttr(g, attr)
}

// DeclaresAttr reports whether any class of the object declares the
// attribute — the same resolution Env's Declared answers, so callers can
// predict whether an identifier evaluates to Null for an object missing
// it (declared), to a same-named constant, or to an unknown-identifier
// error (undeclared). The extent-index planner uses it to decline
// attributes whose per-row resolution is not simply the stored value.
func (v *GlobalView) DeclaresAttr(g *GObj, attr string) bool {
	return DeclaredIn(v.decl, g, attr)
}

// DeclaredIn answers DeclaresAttr from a declared-attribute table
// (DeclTable), for callers holding a table the view has since replaced.
func DeclaredIn(decl map[string]map[string]bool, g *GObj, attr string) bool {
	for cls := range g.Classes {
		if decl[cls][attr] {
			return true
		}
	}
	return false
}

// DeclTable returns the class → declared-attribute table Env and
// DeclaresAttr answer from. It is never changed: a change to the view's
// class set replaces it, so a caller may keep it.
func (v *GlobalView) DeclTable() map[string]map[string]bool { return v.decl }

// refreshDecl rebuilds the declared-attribute table from the origin
// classes, once per change to their set.
func (v *GlobalView) refreshDecl() {
	decl := make(map[string]map[string]bool, len(v.Origin))
	for name, org := range v.Origin {
		attrs := v.Conformed.SchemaOf(org.Side).AllAttrs(org.Class)
		set := make(map[string]bool, len(attrs))
		for _, a := range attrs {
			set[a.Name] = true
		}
		decl[name] = set
	}
	v.decl = decl
}

// ApplyInsert registers an object newly shipped to a component database in
// the integrated view, so the serving path (queries, key-uniqueness
// validation) reflects it without re-running integration. The object is
// classified along its origin class's inheritance chain; Sim-rule
// classification, entity resolution against the other side, and PropEq
// value conversion are not re-run — attrs are stored as given and must
// already be in the conformed (global) domain, the same domain
// view.Engine.Validate evaluates; a full re-integration remains the way to
// pick those up. src is the component-store reference the insert
// received, registered for Deref.
func (v *GlobalView) ApplyInsert(class string, attrs map[string]object.Value, src object.Ref) (*GObj, error) {
	org, ok := v.Origin[class]
	if !ok {
		return nil, fmt.Errorf("no origin class for global class %s", class)
	}
	g := &GObj{
		ID:      v.nextObjectID(),
		Parts:   map[Side][]*CObj{},
		Classes: map[string]bool{},
	}
	// A name the dictionary lacks extends it: a member store refuses
	// undeclared attributes, but the view does not depend on that.
	v.newObjectAttrs(g, attrs)
	// The constituent gets its own copy of the values: sharing them would
	// let a later in-place constituent write (ApplyUpdate fans values out
	// to the parts) change the object behind a frozen snapshot's back.
	g.Parts[org.Side] = append(g.Parts[org.Side], &CObj{
		Src: src, Side: org.Side, Class: org.Class,
		slotted: slotted{dict: g.dict, vals: slices.Clone(g.vals)},
	})
	for _, cn := range v.Conformed.SchemaOf(org.Side).Supers(org.Class) {
		v.addToClass(g, org.Side, cn)
	}
	v.Objects = append(v.Objects, g)
	v.byRef[g.Identity()] = g
	v.byRef[src] = g
	return g, nil
}

// Merge runs the merging phase: entity resolution over the equality rules
// (explicit and descriptivity-implied), value fusion through decision
// functions, Sim-rule classification, and derivation of the global class
// lattice from the merged extensions.
func Merge(c *Conformed) (*GlobalView, error) {
	v := &GlobalView{
		Conformed: c,
		classExt:  map[string][]*GObj{},
		Origin: map[string]struct {
			Side  Side
			Class string
		}{},
	}
	v.dict = v.schemaDict()
	rng := rand.New(rand.NewSource(c.Spec.Seed))

	// --- Entity resolution: union-find over the objects' dense numbers.
	parent := make([]int, c.nobj)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b *CObj) {
		ra, rb := find(a.ix), find(b.ix)
		if ra != rb {
			parent[rb] = ra
		}
	}

	env := c.ruleEnv()
	for _, r := range slices.Concat(c.Spec.EqRules, c.ImpliedEq) {
		if err := v.resolveRule(r, env, union); err != nil {
			return nil, err
		}
	}

	// --- Global object construction ------------------------------------
	// Groups are numbered in order of their first member, local objects
	// before remote ones, and hold their members in that order: a
	// group's local parts precede its remote parts in one block.
	all := slices.Concat(c.AllObjects(LocalSide), c.AllObjects(RemoteSide))
	groupOf := make([]int, c.nobj) // root → group number + 1
	var start []int                // group → first member's index in members
	for _, o := range all {
		r := find(o.ix)
		if groupOf[r] == 0 {
			start = append(start, 0)
			groupOf[r] = len(start)
		}
		start[groupOf[r]-1]++
	}
	for i, n := 0, 0; i < len(start); i++ {
		start[i], n = n, n+start[i]
	}
	start = append(start, len(all))
	members := make([]*CObj, len(all))
	next := slices.Clone(start)
	for _, o := range all {
		gi := groupOf[find(o.ix)] - 1
		members[next[gi]] = o
		next[gi]++
	}

	v.Objects = make([]*GObj, 0, len(start)-1)
	v.byRef = make(map[object.Ref]*GObj, len(all)+len(start)-1)
	f := newFuser(v, rng)
	for i := range len(start) - 1 {
		grp := members[start[i]:start[i+1]:start[i+1]]
		g := &GObj{
			ID:      i + 1,
			Parts:   make(map[Side][]*CObj, 2),
			Classes: map[string]bool{},
		}
		nLocal := 0
		for nLocal < len(grp) && grp[nLocal].Side == LocalSide {
			nLocal++
		}
		if nLocal > 0 {
			g.Parts[LocalSide] = grp[:nLocal:nLocal]
		}
		if nLocal < len(grp) {
			g.Parts[RemoteSide] = grp[nLocal:]
		}
		f.fuse(g, grp, nLocal)
		v.Objects = append(v.Objects, g)
		v.byRef[g.Identity()] = g
		for _, m := range grp {
			v.byRef[m.Src] = g
		}
	}
	v.fusePlans = len(f.plans)

	// --- Classification --------------------------------------------------
	v.classifyConstituents()
	if err := v.classifySim(env); err != nil {
		return nil, err
	}
	v.buildLattice()
	v.refreshDecl()
	return v, nil
}

// schemaDict builds the dictionary Merge starts from: the attribute
// names of every class of the member schemas, in member, class and
// declaration order, so an object's slots cluster by its classes. Merge
// adds any other name a constituent carries as fusion meets it.
func (v *GlobalView) schemaDict() *AttrDict {
	var names []string
	for side := Side(0); int(side) < v.memberSlots(); side++ {
		db := v.Conformed.SchemaOf(side)
		for _, cls := range db.Classes() {
			for _, a := range db.AllAttrs(cls.Name) {
				names = append(names, a.Name)
			}
		}
	}
	return (*AttrDict)(nil).with(names...)
}

// condsHold reports whether every condition holds in env.
func condsHold(env *expr.Env, conds []expr.Node) (bool, error) {
	for _, cond := range conds {
		if ok, err := env.EvalBool(cond); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// resolveRule finds matching (local, remote) pairs for one equality rule
// and unions them, evaluating the rule's conformed conditions in env. A
// hash join on the first equi-join conjunct avoids the quadratic pair
// scan when possible.
func (v *GlobalView) resolveRule(r *EqRule, env *expr.Env, union func(a, b *CObj)) error {
	c := v.Conformed
	locals := c.Extent(LocalSide, r.LocalClass)
	remotes := c.Extent(RemoteSide, r.RemoteClass)
	if len(locals) == 0 || len(remotes) == 0 {
		return nil
	}
	defer clear(env.Vars)
	try := func(lo, ro *CObj) error {
		env.Vars[r.LocalVar], env.Vars[r.RemoteVar] = lo, ro
		ok, err := condsHold(env, r.Conds)
		if err != nil {
			return fmt.Errorf("rule %s: %w", r.Raw.Name, err)
		}
		if ok {
			union(lo, ro)
		}
		return nil
	}

	la, ra, hasEqui := equiJoinAttrs(r.Conds, r.LocalVar, r.RemoteVar)
	if hasEqui && !c.Spec.DisableHashJoin {
		// Each hash heads a chain of remotes in extent order: head holds
		// the first one's index + 1, next[i] the one after remotes[i].
		head := make(map[uint64]int, len(remotes))
		next := make([]int, len(remotes))
		for i := len(remotes) - 1; i >= 0; i-- {
			if val, ok := remotes[i].Get(ra); ok && val.Kind() != object.KindNull {
				h := object.Hash(val)
				next[i], head[h] = head[h], i+1
			}
		}
		for _, lo := range locals {
			val, ok := lo.Get(la)
			if !ok || val.Kind() == object.KindNull {
				continue
			}
			for i := head[object.Hash(val)]; i != 0; i = next[i-1] {
				if err := try(lo, remotes[i-1]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, lo := range locals {
		for _, ro := range remotes {
			if err := try(lo, ro); err != nil {
				return err
			}
		}
	}
	return nil
}

// equiJoinAttrs extracts the first conjunct of shape lv.a = rv.b.
func equiJoinAttrs(conds []expr.Node, lv, rv string) (string, string, bool) {
	for _, cond := range conds {
		b, ok := cond.(expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lp, lok := b.L.(expr.Path)
		rp, rok := b.R.(expr.Path)
		if !lok || !rok {
			continue
		}
		lroot, lok := lp.Recv.(expr.Ident)
		rroot, rok := rp.Recv.(expr.Ident)
		if !lok || !rok {
			continue
		}
		switch {
		case lroot.Name == lv && rroot.Name == rv:
			return lp.Attr, rp.Attr, true
		case lroot.Name == rv && rroot.Name == lv:
			return rp.Attr, lp.Attr, true
		}
	}
	return "", "", false
}

// classifyConstituents adds each global object to the global classes of
// its constituents' conformed class chains. A chain, and the global name
// of each of its classes, is resolved once per (side, class).
func (v *GlobalView) classifyConstituents() {
	type sideClass struct {
		side  Side
		class string
	}
	chains := map[sideClass][]classLink{}
	for _, g := range v.Objects {
		// Fixed side order keeps class registration (and therefore the
		// derived lattice's edge order) deterministic.
		for _, side := range []Side{LocalSide, RemoteSide} {
			for _, m := range g.Parts[side] {
				k := sideClass{side, m.Class}
				chain, ok := chains[k]
				if !ok {
					chain = v.chain(side, m.Class)
					chains[k] = chain
				}
				for _, l := range chain {
					v.addNamed(g, l.name, side, l.class)
				}
			}
		}
	}
}

// classLink is one class of a conformed class chain with its global
// name.
type classLink struct{ class, name string }

// chain returns a conformed class's chain — the class and its
// superclasses — with their global names.
func (v *GlobalView) chain(side Side, class string) []classLink {
	supers := v.Conformed.SchemaOf(side).Supers(class)
	out := make([]classLink, len(supers))
	for i, cn := range supers {
		out[i] = classLink{class: cn, name: v.GlobalName(side, cn)}
	}
	return out
}

func (v *GlobalView) addToClass(g *GObj, side Side, class string) {
	v.addNamed(g, v.GlobalName(side, class), side, class)
}

// addNamed adds the object to the global class name of a conformed
// class, registering the class on its first member.
func (v *GlobalView) addNamed(g *GObj, name string, side Side, class string) {
	if g.Classes[name] {
		return
	}
	g.Classes[name] = true
	if _, seen := v.Origin[name]; !seen {
		v.Origin[name] = struct {
			Side  Side
			Class string
		}{side, class}
		v.ClassNames = append(v.ClassNames, name)
		if v.decl != nil {
			v.refreshDecl() // a class first populated after Merge
		}
	}
	v.classExt[name] = append(v.classExt[name], g)
}

// classifySim applies the similarity rules: source-side objects whose
// conformed intraobject condition holds in env join the target class
// (strict) or the virtual common superclass (approximate).
func (v *GlobalView) classifySim(env *expr.Env) error {
	c := v.Conformed
	for _, r := range c.Spec.SimRules {
		targetSide := r.SrcSide.Other()
		var approxMembers []int
		var chain []classLink
		if !r.Approximate() {
			chain = v.chain(targetSide, r.Target)
		}
		for _, o := range c.Extent(r.SrcSide, r.SrcClass) {
			g, ok := v.byRef[o.Src]
			if !ok {
				continue
			}
			env.Vars[r.SrcVar] = o
			match, err := condsHold(env, r.Conds)
			if err != nil {
				return fmt.Errorf("rule %s: %w", r.Raw.Name, err)
			}
			if !match {
				continue
			}
			if r.Approximate() {
				approxMembers = append(approxMembers, g.ID)
				v.addVirtualMember(g, r.Virtual)
			} else {
				for _, l := range chain {
					v.addNamed(g, l.name, targetSide, l.class)
				}
			}
		}
		delete(env.Vars, r.SrcVar)
		if r.Approximate() {
			// ext(Cv) ⊇ ext(C): the target class's extension is included.
			for _, g := range v.Extent(v.GlobalName(targetSide, r.Target)) {
				v.addVirtualMember(g, r.Virtual)
				approxMembers = append(approxMembers, g.ID)
			}
			v.ApproxSupers = append(v.ApproxSupers, ApproxSuper{
				Name:        r.Virtual,
				LocalClass:  r.Target,
				RemoteClass: r.SrcClass,
				MemberIDs:   dedupInts(approxMembers),
			})
		}
	}
	return nil
}

func (v *GlobalView) addVirtualMember(g *GObj, class string) {
	if g.Classes[class] {
		return
	}
	g.Classes[class] = true
	// Register the class name on its FIRST member only (keyed on the
	// extent map: virtual classes never get an Origin entry, so keying
	// on Origin — as this once did — appended the name again for every
	// member, duplicating it in ClassNames, the report and the lattice
	// loops).
	if _, seen := v.classExt[class]; !seen {
		if _, hasOrigin := v.Origin[class]; !hasOrigin {
			v.ClassNames = append(v.ClassNames, class)
		}
	}
	v.classExt[class] = append(v.classExt[class], g)
}

// extentSet is a class extension as a bitset over positions in the
// ID-ordered v.Objects — not over IDs, so it stays O(live objects)
// however far IDs have advanced — with its member count.
type extentSet struct {
	bits []uint64
	n    int
}

// extentSets indexes the extensions of the named classes by position.
func (v *GlobalView) extentSets(names []string) map[string]extentSet {
	words := (len(v.Objects) + 63) / 64
	out := make(map[string]extentSet, len(names))
	for _, name := range names {
		s := extentSet{bits: make([]uint64, words)}
		for _, g := range v.classExt[name] {
			p, ok := v.position(g)
			if !ok {
				panic(fmt.Sprintf("core: g%d is in the extent of %s but not in the view", g.ID, name))
			}
			s.bits[p/64] |= 1 << (p % 64)
		}
		for _, w := range s.bits {
			s.n += bits.OnesCount64(w)
		}
		out[name] = s
	}
	return out
}

// position returns g's index in the ID-ordered v.Objects. Until a
// delete burns an ID the object with ID i sits at index i-1, so that
// slot is tried before the search.
func (v *GlobalView) position(g *GObj) (int, bool) {
	if i := g.ID - 1; i >= 0 && i < len(v.Objects) && v.Objects[i] == g {
		return i, true
	}
	i, ok := slices.BinarySearchFunc(v.Objects, g.ID, func(o *GObj, id int) int { return cmp.Compare(o.ID, id) })
	return i, ok && v.Objects[i] == g
}

// subsetOf reports whether s is a non-empty subset of t.
func (s extentSet) subsetOf(t extentSet) bool {
	if s.n == 0 || s.n > t.n {
		return false
	}
	for i, w := range s.bits {
		if w&^t.bits[i] != 0 {
			return false
		}
	}
	return true
}

// intersection returns the members of both s and t in ascending ID order.
func (v *GlobalView) intersection(s, t extentSet) []*GObj {
	var out []*GObj
	for i := range min(len(s.bits), len(t.bits)) {
		for w := s.bits[i] & t.bits[i]; w != 0; w &= w - 1 {
			out = append(out, v.Objects[i*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// containmentEdges returns an ISA edge for every ordered pair of
// distinct names whose extension is a non-empty subset of the other's,
// in names × names order.
func containmentEdges(names []string, sets map[string]extentSet) []ISAEdge {
	var out []ISAEdge
	for _, a := range names {
		for _, b := range names {
			if a != b && sets[a].subsetOf(sets[b]) {
				out = append(out, ISAEdge{Sub: a, Super: b})
			}
		}
	}
	return out
}

// buildLattice derives subclass edges from extension containment and
// creates virtual intersection subclasses for Sim-related class pairs
// with partial overlap (the paper's RefereedProceedings).
func (v *GlobalView) buildLattice() {
	sets := v.extentSets(v.ClassNames)
	v.ISA = append(v.ISA, containmentEdges(v.ClassNames, sets)...)
	// Virtual intersection subclasses for Sim-related pairs.
	for _, r := range v.Conformed.Spec.SimRules {
		if r.Approximate() {
			continue
		}
		srcName := v.GlobalName(r.SrcSide, r.SrcClass)
		tgtName := v.GlobalName(r.SrcSide.Other(), r.Target)
		se, te := sets[srcName], sets[tgtName]
		both := v.intersection(se, te)
		if len(both) == 0 || se.subsetOf(te) || te.subsetOf(se) {
			continue
		}
		name := tgtName + "_" + strings.ReplaceAll(srcName, ".", "_")
		dup := false
		for _, vs := range v.VirtualSubclasses {
			if vs.Name == name {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		inter := make([]int, len(both))
		for i, g := range both {
			inter[i] = g.ID
		}
		vs := VirtualSubclass{Name: name, LocalClass: tgtName, RemoteClass: srcName, MemberIDs: inter}
		v.VirtualSubclasses = append(v.VirtualSubclasses, vs)
		for _, g := range both {
			v.addVirtualMember(g, name)
		}
		v.ISA = append(v.ISA,
			ISAEdge{Sub: name, Super: srcName},
			ISAEdge{Sub: name, Super: tgtName},
		)
	}
}

func dedupInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, x := range in {
		if i == 0 || x != in[i-1] {
			out = append(out, x)
		}
	}
	return out
}
