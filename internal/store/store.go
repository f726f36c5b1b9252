// Package store implements the in-memory object DBMS engine that plays
// the role of a component database: typed object storage per class
// extension, OID allocation, reference dereferencing, and enforcement of
// the object, class and database constraints declared in the schema.
//
// Each autonomous component database of the paper (CSLibrary, Bookseller)
// is one Store. The integration layer reads extents through the public
// API and never bypasses local constraint enforcement — mirroring the
// paper's premise that local constraints are enforced locally.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// Obj is a stored object: its OID, its most specific class, and its
// attribute values.
type Obj struct {
	oid   object.OID
	db    string
	class string
	attrs map[string]object.Value
	seq   uint64 // insertion sequence: the object's place in its direct extent
}

// OID returns the object identifier.
func (o *Obj) OID() object.OID { return o.oid }

// Identity implements expr.Identifiable.
func (o *Obj) Identity() object.Ref { return object.Ref{DB: o.db, OID: o.oid} }

// Class returns the most specific class of the object.
func (o *Obj) Class() string { return o.class }

// Get implements expr.Object.
func (o *Obj) Get(attr string) (object.Value, bool) {
	v, ok := o.attrs[attr]
	return v, ok
}

// Attrs returns a copy of the attribute map.
func (o *Obj) Attrs() map[string]object.Value {
	out := make(map[string]object.Value, len(o.attrs))
	for k, v := range o.attrs {
		out[k] = v
	}
	return out
}

// String renders the object for diagnostics.
func (o *Obj) String() string {
	keys := make([]string, 0, len(o.attrs))
	for k := range o.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + o.attrs[k].String()
	}
	return fmt.Sprintf("%s%s(%s)", o.class, o.oid, strings.Join(parts, ","))
}

// Violation describes one constraint violation discovered by validation.
type Violation struct {
	Constraint schema.Constraint
	Class      string
	OID        object.OID // zero for class/database constraint violations
	Detail     string
}

// Error renders the violation as an error message.
func (v Violation) Error() string {
	where := v.Class
	if v.OID != 0 {
		where = fmt.Sprintf("%s%s", v.Class, v.OID)
	}
	return fmt.Sprintf("constraint %s.%s (%s) violated on %s: %s",
		v.Class, v.Constraint.Name, v.Constraint.Kind, where, v.Detail)
}

// ViolationError aggregates violations into an error.
type ViolationError struct{ Violations []Violation }

// Error implements error.
func (e *ViolationError) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.Error()
	}
	return strings.Join(parts, "; ")
}

// Store is an in-memory component database instance.
type Store struct {
	db      *schema.Database
	consts  map[string]object.Value
	objs    map[object.OID]*Obj
	byClass map[string][]*Obj // direct (most-specific) instances, in insertion order (ascending seq)
	nextOID object.OID
	nextSeq uint64
	cons    *constraints
	// Enforce controls whether direct mutations validate constraints
	// immediately. Transactions always validate at commit.
	Enforce bool
}

// New creates a store over the given schema with the given named
// constants (e.g. KNOWNPUBLISHERS, MAX). Constraint enforcement on direct
// mutation is on by default. The schema must not change afterwards: the
// store resolves what each constraint reads once, here.
func New(db *schema.Database, consts map[string]object.Value) *Store {
	cc := make(map[string]object.Value, len(consts))
	for k, v := range consts {
		cc[k] = v
	}
	return &Store{
		db:      db,
		consts:  cc,
		objs:    make(map[object.OID]*Obj),
		byClass: make(map[string][]*Obj),
		nextOID: 1,
		cons:    planConstraints(db),
		Enforce: true,
	}
}

// Schema returns the schema the store enforces.
func (s *Store) Schema() *schema.Database { return s.db }

// Name returns the database name.
func (s *Store) Name() string { return s.db.Name }

// Consts returns the named constants (shared map; treat as read-only).
func (s *Store) Consts() map[string]object.Value { return s.consts }

// Count returns the number of stored objects.
func (s *Store) Count() int { return len(s.objs) }

// Get looks an object up by OID.
func (s *Store) Get(oid object.OID) (*Obj, bool) {
	o, ok := s.objs[oid]
	return o, ok
}

// extentClasses lists the class and its declared subclasses: the direct
// extents that make up its extension, in extension order.
func (s *Store) extentClasses(class string) []string {
	return append([]string{class}, s.db.Subclasses(class)...)
}

// Extent returns the extension of a class: its direct instances plus
// those of all declared subclasses, in insertion order per class.
func (s *Store) Extent(class string) []*Obj {
	var out []*Obj
	for _, cn := range s.extentClasses(class) {
		out = append(out, s.byClass[cn]...)
	}
	return out
}

// DirectExtent returns only the objects whose most specific class is the
// given class.
func (s *Store) DirectExtent(class string) []*Obj {
	return append(make([]*Obj, 0, len(s.byClass[class])), s.byClass[class]...)
}

// validateAttrs checks that every provided attribute is declared on the
// class (own or inherited) and type-correct.
func (s *Store) validateAttrs(class string, attrs map[string]object.Value) error {
	if _, ok := s.db.Class(class); !ok {
		return fmt.Errorf("store %s: unknown class %s", s.Name(), class)
	}
	for name, v := range attrs {
		a, _, ok := s.db.ResolveAttr(class, name)
		if !ok {
			return fmt.Errorf("store %s: class %s has no attribute %q", s.Name(), class, name)
		}
		t := a.Type.(object.Type)
		if v.Kind() == object.KindNull {
			continue
		}
		if !t.Accepts(v) {
			return fmt.Errorf("store %s: %s.%s: value %s not in type %s", s.Name(), class, name, v, t)
		}
	}
	return nil
}

// Insert adds an object of the given class. With Enforce on, the insert
// is checked as a one-op transaction (check.go); a violation rolls it
// back.
func (s *Store) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	if err := s.validateAttrs(class, attrs); err != nil {
		return 0, err
	}
	oid := s.nextOID
	s.nextOID++
	b := &batch{s: s}
	if err := b.insert(oid, class, attrs); err != nil {
		return 0, err
	}
	if err := s.settle(b); err != nil {
		s.nextOID--
		return 0, err
	}
	return oid, nil
}

// insertReserved registers an object under an OID reserved earlier (by
// Tx.Insert, a log record or a checkpoint). Attributes were validated by
// the caller; constraint checking is the caller's responsibility.
func (s *Store) insertReserved(oid object.OID, class string, attrs map[string]object.Value) (*Obj, error) {
	if _, taken := s.objs[oid]; taken {
		return nil, fmt.Errorf("store %s: reserved OID %s already occupied", s.Name(), oid)
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	s.nextSeq++
	o := &Obj{oid: oid, db: s.Name(), class: class, attrs: cp, seq: s.nextSeq}
	s.place(o)
	return o, nil
}

// MustInsert inserts and panics on error; for tests and embedded fixtures.
func (s *Store) MustInsert(class string, attrs map[string]object.Value) object.OID {
	oid, err := s.Insert(class, attrs)
	if err != nil {
		panic(fmt.Sprintf("store %s: MustInsert(%s): %v", s.Name(), class, err))
	}
	return oid
}

// Update assigns the given attributes on an existing object (partial
// update; attributes not mentioned are unchanged). With Enforce on, it
// is checked as a one-op transaction; a violation rolls it back.
func (s *Store) Update(oid object.OID, attrs map[string]object.Value) error {
	o, ok := s.objs[oid]
	if !ok {
		return fmt.Errorf("store %s: no object %s", s.Name(), oid)
	}
	if err := s.validateAttrs(o.class, attrs); err != nil {
		return err
	}
	b := &batch{s: s}
	if err := b.update(oid, attrs); err != nil {
		return err
	}
	return s.settle(b)
}

// Delete removes an object. With Enforce on, it is checked as a one-op
// transaction; a violation restores the object at its place.
func (s *Store) Delete(oid object.OID) error {
	if _, ok := s.objs[oid]; !ok {
		return fmt.Errorf("store %s: no object %s", s.Name(), oid)
	}
	b := &batch{s: s}
	if err := b.delete(oid); err != nil {
		return err
	}
	return s.settle(b)
}

// settle finishes a direct mutation: with Enforce on it commits as a
// transaction would, otherwise it stands unchecked.
func (s *Store) settle(b *batch) error {
	if !s.Enforce {
		return nil
	}
	return b.commit()
}

// place registers o at its insertion position — the object table, its
// direct extent (ascending seq, so a restored object returns to where it
// was) and the key indexes of every class it belongs to.
func (s *Store) place(o *Obj) {
	s.objs[o.oid] = o
	lst := s.byClass[o.class]
	i := len(lst)
	if i > 0 && lst[i-1].seq > o.seq {
		i, _ = slices.BinarySearchFunc(lst, o.seq, bySeq)
	}
	s.byClass[o.class] = slices.Insert(lst, i, o)
	for _, k := range s.cons.keyed[o.class] {
		k.add(o)
	}
}

// unplace is place's inverse.
func (s *Store) unplace(o *Obj) {
	delete(s.objs, o.oid)
	lst := s.byClass[o.class]
	if i, ok := slices.BinarySearchFunc(lst, o.seq, bySeq); ok {
		s.byClass[o.class] = slices.Delete(lst, i, i+1)
	}
	for _, k := range s.cons.keyed[o.class] {
		k.remove(o)
	}
}

func bySeq(o *Obj, seq uint64) int { return cmp.Compare(o.seq, seq) }

// write assigns attrs on o — a nil value removes the attribute — keeping
// o's key index entries current, and returns the assignment that undoes
// it.
func (s *Store) write(o *Obj, attrs map[string]object.Value) map[string]object.Value {
	keyed := s.cons.keyed[o.class]
	for _, k := range keyed {
		if k.covers(attrs) {
			k.remove(o)
		}
	}
	prev := make(map[string]object.Value, len(attrs))
	for a, v := range attrs {
		prev[a] = o.attrs[a]
		if v == nil {
			delete(o.attrs, a)
		} else {
			o.attrs[a] = v
		}
	}
	for _, k := range keyed {
		if k.covers(attrs) {
			k.add(o)
		}
	}
	return prev
}

// Env builds an evaluation environment with self bound to the given
// object (nil for class/database constraint checking).
func (s *Store) Env(self *Obj) *expr.Env {
	env := &expr.Env{
		Consts: s.consts,
		Ext:    s.extObjects,
		Deref:  s.deref,
	}
	if self != nil {
		env.Self = self
		env.Declared = s.cons.declared[self.class]
	}
	return env
}

func (s *Store) extObjects(class string) []expr.Object {
	out := make([]expr.Object, 0, s.extentSize(class))
	for _, cn := range s.extentClasses(class) {
		for _, o := range s.byClass[cn] {
			out = append(out, o)
		}
	}
	return out
}

func (s *Store) deref(r object.Ref) (expr.Object, bool) {
	if r.DB != "" && r.DB != s.Name() {
		return nil, false
	}
	o, ok := s.objs[r.OID]
	return o, ok
}

// checkObjectConstraints evaluates all (own + inherited) object
// constraints on one object.
func (s *Store) checkObjectConstraints(o *Obj) []Violation {
	var out []Violation
	env := s.Env(o)
	for _, c := range s.db.AllObjectConstraints(o.class) {
		out = objectViolation(env, o, c, out)
	}
	return out
}

// checkClassConstraints evaluates the class constraints declared on one
// class over its extension.
func (s *Store) checkClassConstraints(class string) []Violation {
	var out []Violation
	ccs := s.db.OwnConstraints(class, schema.ClassConstraint)
	if len(ccs) == 0 {
		return nil
	}
	env := s.Env(nil)
	env.SelfExt = s.extObjects(class)
	for _, c := range ccs {
		out = classViolation(env, class, c, out)
	}
	return out
}

// checkDatabaseConstraints evaluates the database constraints.
func (s *Store) checkDatabaseConstraints() []Violation {
	var out []Violation
	env := s.Env(nil)
	for _, c := range s.db.DBCons {
		out = databaseViolation(env, c, out)
	}
	return out
}

// objectViolation appends o's violation of object constraint c, if any;
// env has self bound to o. It, classViolation and databaseViolation are
// the only places a Violation is worded, for CheckAll and the commit
// check alike.
func objectViolation(env *expr.Env, o *Obj, c schema.Constraint, out []Violation) []Violation {
	switch failed, err := judge(env, c); {
	case err != nil:
		return append(out, Violation{Constraint: c, Class: o.class, OID: o.oid, Detail: "evaluation failed: " + err.Error()})
	case failed:
		return append(out, Violation{Constraint: c, Class: o.class, OID: o.oid, Detail: "object state " + o.String()})
	}
	return out
}

// classViolation appends the violation of class constraint c over the
// extension env.SelfExt, if any.
func classViolation(env *expr.Env, class string, c schema.Constraint, out []Violation) []Violation {
	switch failed, err := judge(env, c); {
	case err != nil:
		return append(out, Violation{Constraint: c, Class: class, Detail: "evaluation failed: " + err.Error()})
	case failed:
		return append(out, extentViolation(c, class, len(env.SelfExt)))
	}
	return out
}

// extentViolation words a failed class constraint over an extension of
// n objects.
func extentViolation(c schema.Constraint, class string, n int) Violation {
	return Violation{Constraint: c, Class: class, Detail: fmt.Sprintf("extension of %d objects", n)}
}

// databaseViolation appends the violation of database constraint c, if
// any.
func databaseViolation(env *expr.Env, c schema.Constraint, out []Violation) []Violation {
	switch failed, err := judge(env, c); {
	case err != nil:
		return append(out, Violation{Constraint: c, Class: "", Detail: "evaluation failed: " + err.Error()})
	case failed:
		return append(out, Violation{Constraint: c, Class: "", Detail: "database state"})
	}
	return out
}

// judge evaluates c in env: failed when it does not hold. A constraint
// whose Expr is not a formula is never judged.
func judge(env *expr.Env, c schema.Constraint) (failed bool, err error) {
	n, ok := c.Expr.(expr.Node)
	if !ok {
		return false, nil
	}
	holds, err := env.EvalBool(n)
	return err == nil && !holds, err
}

// CheckAll validates every constraint in the database and returns all
// violations (empty means consistent). It is the reference the commit
// check (check.go) is held to.
func (s *Store) CheckAll() []Violation {
	var out []Violation
	for _, cls := range s.db.Classes() {
		for _, o := range s.byClass[cls.Name] {
			out = append(out, s.checkObjectConstraints(o)...)
		}
		out = append(out, s.checkClassConstraints(cls.Name)...)
	}
	out = append(out, s.checkDatabaseConstraints()...)
	return out
}

// FindByAttr returns the objects in the class extension whose attribute
// equals the value (linear scan; key lookups in the integration layer
// build their own hash indexes).
func (s *Store) FindByAttr(class, attr string, v object.Value) []*Obj {
	var out []*Obj
	for _, o := range s.Extent(class) {
		if x, ok := o.Get(attr); ok && x.Equal(v) {
			out = append(out, o)
		}
	}
	return out
}
