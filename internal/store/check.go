package store

import (
	"fmt"
	"slices"

	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// The commit check. A transaction — and a direct mutation, which is a
// transaction of one op — is checked against the constraints it can have
// falsified, not against the whole store: given a consistent pre-state,
// a constraint whose inputs the batch left alone still holds
// (Martinenghi's simplified integrity checking). What a constraint reads
// is resolved once per store from expr.ForeignReads:
//
//   - an object constraint reads its object's own attributes, plus its
//     footprint on other objects;
//   - every constraint's footprint on other objects is the classes whose
//     extensions it ranges over and the attributes it reads on an object
//     other than self (through a reference, a bound variable, an
//     aggregate or a key).
//
// A batch touches a footprint when it inserts into or deletes from a
// class the constraint ranges over (or a subclass), writes one of its
// foreign attributes on any object, or inserts or deletes an object
// holding one — a reference that resolves to a new object, or stops
// resolving, changes only through the attributes that object holds. Key
// constraints are decided by per-class key indexes the store maintains
// on every change, touched only by an insert into the extension or a
// write to a key attribute. The check evaluates every object constraint
// of each written (inserted or updated) object, every touched object
// constraint on every object it applies to, and every touched class or
// database constraint — in CheckAll's order, with CheckAll's wording, so
// on a consistent pre-state the verdict and the violation list are
// CheckAll's (FuzzCommitDifferential). On a pre-state that already
// violates a constraint the batch does not touch, the check does not see
// that violation where CheckAll would: it may accept such a batch, and
// it never rejects one CheckAll accepts, since every violation it
// reports is one of CheckAll's.

// constraints is a store's constraint set resolved for the commit check.
type constraints struct {
	object map[string][]*footprint // per class: its object constraints, own and inherited, nearest class first
	class  map[string][]*footprint // per class: the class constraints declared on it
	db     []*footprint
	keyed  map[string][]*keyIndex // per class: the key indexes its direct instances belong to
	keys   []*keyIndex
}

// footprint is one constraint with what it reads beyond its own object.
type footprint struct {
	c       schema.Constraint
	node    expr.Node       // nil when Expr is not a formula: never checked, as in CheckAll
	ranges  []string        // classes whose extensions it reads
	foreign map[string]bool // attributes it reads on objects other than self
	key     *keyIndex       // set for a key class constraint: the index decides it
}

// planConstraints resolves the schema's constraints, mirroring the
// iteration orders of AllObjectConstraints, OwnConstraints and DBCons.
func planConstraints(db *schema.Database) *constraints {
	p := &constraints{
		object: map[string][]*footprint{},
		class:  map[string][]*footprint{},
		keyed:  map[string][]*keyIndex{},
	}
	own := map[string][]*footprint{}
	for _, cls := range db.Classes() {
		for _, c := range cls.Constraints {
			switch c.Kind {
			case schema.ObjectConstraint:
				own[cls.Name] = append(own[cls.Name], newFootprint(c, ""))
			case schema.ClassConstraint:
				fp := newFootprint(c, cls.Name)
				p.class[cls.Name] = append(p.class[cls.Name], fp)
				if fp.key != nil {
					p.keys = append(p.keys, fp.key)
				}
			}
		}
	}
	for _, cls := range db.Classes() {
		for _, cn := range db.Supers(cls.Name) {
			p.object[cls.Name] = append(p.object[cls.Name], own[cn]...)
			for _, fp := range p.class[cn] {
				if fp.key != nil {
					p.keyed[cls.Name] = append(p.keyed[cls.Name], fp.key)
				}
			}
		}
	}
	for _, c := range db.DBCons {
		p.db = append(p.db, newFootprint(c, ""))
	}
	return p
}

// newFootprint resolves c; extension names the class whose extension
// "self" denotes in it (a class constraint's owner), or is empty.
func newFootprint(c schema.Constraint, extension string) *footprint {
	fp := &footprint{c: c}
	n, ok := c.Expr.(expr.Node)
	if !ok {
		return fp
	}
	fp.node = n
	classes, attrs := expr.ForeignReads(n)
	for cn := range classes {
		if cn == "self" {
			if extension == "" {
				continue // self's extension is empty outside class constraints
			}
			cn = extension
		}
		fp.ranges = append(fp.ranges, cn)
	}
	fp.foreign = attrs
	if k, ok := n.(expr.Key); ok && extension != "" && len(k.Attrs) > 0 {
		fp.key = &keyIndex{attrs: k.Attrs, count: map[string]int{}}
	}
	return fp
}

// keyIndex counts, per composite key (expr.KeyString, EvalKey's
// encoding), the objects of one class extension holding it, so the key
// constraint holds exactly when no key is held twice.
type keyIndex struct {
	attrs []string
	count map[string]int
	dups  int // keys held by more than one object
}

func (k *keyIndex) add(o *Obj) {
	if s, ok := expr.KeyString(o, k.attrs); ok {
		k.count[s]++
		if k.count[s] == 2 {
			k.dups++
		}
	}
}

func (k *keyIndex) remove(o *Obj) {
	s, ok := expr.KeyString(o, k.attrs)
	if !ok {
		return
	}
	n := k.count[s] - 1
	if n == 1 {
		k.dups--
	}
	if n <= 0 {
		delete(k.count, s)
	} else {
		k.count[s] = n
	}
}

// covers reports whether attrs names one of the key's attributes.
func (k *keyIndex) covers(attrs map[string]object.Value) bool {
	for _, a := range k.attrs {
		if _, ok := attrs[a]; ok {
			return true
		}
	}
	return false
}

// batch applies a transaction's changes to the store, remembering for
// each how to undo it and what the commit check must look at.
type batch struct {
	s       *Store
	changes []change
	checked int // constraint evaluations (key probes included) the check made
}

type change struct {
	kind txOpKind
	o    *Obj
	prev map[string]object.Value // an update's undo: the prior values, nil where absent
}

func (b *batch) insert(oid object.OID, class string, attrs map[string]object.Value) error {
	o, err := b.s.insertReserved(oid, class, attrs)
	if err != nil {
		return err
	}
	b.changes = append(b.changes, change{kind: opInsert, o: o})
	return nil
}

func (b *batch) update(oid object.OID, attrs map[string]object.Value) error {
	o, ok := b.s.objs[oid]
	if !ok {
		return fmt.Errorf("store %s: no object %s at commit", b.s.Name(), oid)
	}
	b.changes = append(b.changes, change{kind: opUpdate, o: o, prev: b.s.write(o, attrs)})
	return nil
}

func (b *batch) delete(oid object.OID) error {
	o, ok := b.s.objs[oid]
	if !ok {
		return fmt.Errorf("store %s: no object %s at commit", b.s.Name(), oid)
	}
	b.s.unplace(o)
	b.changes = append(b.changes, change{kind: opDelete, o: o})
	return nil
}

// rollback undoes the changes, newest first: the store is as before the
// batch, every object at its place in its extent.
func (b *batch) rollback() {
	for i := len(b.changes) - 1; i >= 0; i-- {
		switch ch := b.changes[i]; ch.kind {
		case opInsert:
			b.s.unplace(ch.o)
		case opUpdate:
			b.s.write(ch.o, ch.prev)
		case opDelete:
			b.s.place(ch.o)
		}
	}
	b.changes = nil
}

// commit checks the batch and keeps it, or rolls it back and returns
// the violations.
func (b *batch) commit() error {
	if vs := b.check(); len(vs) > 0 {
		b.rollback()
		return &ViolationError{vs}
	}
	return nil
}

// check evaluates what the batch can have falsified (see the top of this
// file) and returns the violations in CheckAll's order.
func (b *batch) check() []Violation {
	s := b.s
	members := map[string]bool{}          // classes whose direct extent gained or lost an object
	attrs := map[string]bool{}            // attributes written, or held by an inserted or deleted object
	keys := map[*keyIndex]bool{}          // key indexes that gained or re-keyed an entry
	written := map[string]map[*Obj]bool{} // per class: objects inserted or updated
	for _, ch := range b.changes {
		o := ch.o
		switch ch.kind {
		case opInsert, opDelete:
			members[o.class] = true
			for a := range o.attrs {
				attrs[a] = true
			}
		case opUpdate:
			for a := range ch.prev {
				attrs[a] = true
			}
		}
		if ch.kind == opDelete {
			continue
		}
		if written[o.class] == nil {
			written[o.class] = map[*Obj]bool{}
		}
		written[o.class][o] = true
		for _, k := range s.cons.keyed[o.class] {
			if ch.kind == opInsert || k.covers(ch.prev) {
				keys[k] = true
			}
		}
	}
	touched := map[*footprint]bool{}
	touches := func(fp *footprint) bool {
		t, seen := touched[fp]
		if !seen {
			t = fp.node != nil && b.reaches(fp, members, attrs, keys)
			touched[fp] = t
		}
		return t
	}

	env := s.checkEnv()
	self := map[string]expr.Object{}
	objEnv := *env
	objEnv.Vars = self
	var out []Violation
	for _, cls := range s.db.Classes() {
		ocs := s.cons.object[cls.Name]
		sweep := slices.ContainsFunc(ocs, touches)
		objs := s.byClass[cls.Name]
		if !sweep {
			objs = s.liveBySeq(written[cls.Name])
		}
		if len(objs) > 0 && len(ocs) > 0 {
			objEnv.SelfAttrs = s.selfAttrs(cls.Name)
			for _, o := range objs {
				self["self"] = o
				for _, fp := range ocs {
					if written[cls.Name][o] || touches(fp) {
						b.checked++
						out = objectViolation(&objEnv, o, fp.c, out)
					}
				}
			}
		}
		for _, fp := range s.cons.class[cls.Name] {
			if !touches(fp) {
				continue
			}
			b.checked++
			switch {
			case fp.key != nil:
				if fp.key.dups > 0 {
					out = append(out, extentViolation(fp.c, cls.Name, s.extentSize(cls.Name)))
				}
			default:
				ext := *env
				ext.SelfExt = env.Ext(cls.Name)
				out = classViolation(&ext, cls.Name, fp.c, out)
			}
		}
	}
	for _, fp := range s.cons.db {
		if touches(fp) {
			b.checked++
			out = databaseViolation(env, fp.c, out)
		}
	}
	return out
}

// reaches reports whether the batch's changes reach fp's inputs.
func (b *batch) reaches(fp *footprint, members, attrs map[string]bool, keys map[*keyIndex]bool) bool {
	if fp.key != nil {
		return keys[fp.key]
	}
	for a := range fp.foreign {
		if attrs[a] {
			return true
		}
	}
	for _, r := range fp.ranges {
		for m := range members {
			if b.s.db.IsA(m, r) {
				return true
			}
		}
	}
	return false
}

// liveBySeq returns the objects still stored in their direct extent's
// order.
func (s *Store) liveBySeq(objs map[*Obj]bool) []*Obj {
	var out []*Obj
	for o := range objs {
		if s.objs[o.oid] == o {
			out = append(out, o)
		}
	}
	slices.SortFunc(out, func(a, b *Obj) int { return bySeq(a, b.seq) })
	return out
}

// checkEnv is the environment one commit check evaluates in: the store's
// constants and references, and each class extension materialised once
// (nothing changes while the check runs).
func (s *Store) checkEnv() *expr.Env {
	exts := map[string][]expr.Object{}
	return &expr.Env{
		Consts: s.consts,
		Deref:  s.deref,
		Ext: func(class string) []expr.Object {
			ext, ok := exts[class]
			if !ok {
				ext = s.extObjects(class)
				exts[class] = ext
			}
			return ext
		},
	}
}

// selfAttrs is the declared-attribute set of self's class (Env.SelfAttrs).
func (s *Store) selfAttrs(class string) map[string]bool {
	attrs := map[string]bool{}
	for _, a := range s.db.AllAttrs(class) {
		attrs[a.Name] = true
	}
	return attrs
}

// extentSize is len(Extent(class)) without building it.
func (s *Store) extentSize(class string) int {
	n := 0
	for _, cn := range s.extentClasses(class) {
		n += len(s.byClass[cn])
	}
	return n
}
