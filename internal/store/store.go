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
	"fmt"
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
	byClass map[string][]object.OID // direct (most-specific) instances, in insertion order
	nextOID object.OID
	// Enforce controls whether mutations validate constraints
	// immediately. Transactions always validate at commit.
	Enforce bool
}

// New creates a store over the given schema with the given named
// constants (e.g. KNOWNPUBLISHERS, MAX). Constraint enforcement on direct
// mutation is on by default.
func New(db *schema.Database, consts map[string]object.Value) *Store {
	cc := make(map[string]object.Value, len(consts))
	for k, v := range consts {
		cc[k] = v
	}
	return &Store{
		db:      db,
		consts:  cc,
		objs:    make(map[object.OID]*Obj),
		byClass: make(map[string][]object.OID),
		nextOID: 1,
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

// Extent returns the extension of a class: its direct instances plus
// those of all declared subclasses, in insertion order per class.
func (s *Store) Extent(class string) []*Obj {
	var out []*Obj
	for _, cn := range append([]string{class}, s.db.Subclasses(class)...) {
		for _, oid := range s.byClass[cn] {
			out = append(out, s.objs[oid])
		}
	}
	return out
}

// DirectExtent returns only the objects whose most specific class is the
// given class.
func (s *Store) DirectExtent(class string) []*Obj {
	out := make([]*Obj, 0, len(s.byClass[class]))
	for _, oid := range s.byClass[class] {
		out = append(out, s.objs[oid])
	}
	return out
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

// Insert adds an object of the given class. With Enforce on, the object's
// constraints and the affected class/database constraints are validated;
// a violation rolls the insert back.
func (s *Store) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	if err := s.validateAttrs(class, attrs); err != nil {
		return 0, err
	}
	oid := s.nextOID
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	o := &Obj{oid: oid, db: s.Name(), class: class, attrs: cp}
	s.objs[oid] = o
	s.byClass[class] = append(s.byClass[class], oid)
	s.nextOID++
	if s.Enforce {
		if vs := s.checkTouched(o); len(vs) > 0 {
			s.removeObj(oid)
			s.nextOID--
			return 0, &ViolationError{vs}
		}
	}
	return oid, nil
}

// insertReserved registers an object under an OID reserved earlier by
// Tx.Insert. Attributes were validated at staging time; constraint
// checking is the committing transaction's responsibility.
func (s *Store) insertReserved(oid object.OID, class string, attrs map[string]object.Value) error {
	if _, taken := s.objs[oid]; taken {
		return fmt.Errorf("store %s: reserved OID %s already occupied", s.Name(), oid)
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	s.objs[oid] = &Obj{oid: oid, db: s.Name(), class: class, attrs: cp}
	s.byClass[class] = append(s.byClass[class], oid)
	return nil
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
// update; attributes not mentioned are unchanged). With Enforce on, a
// violation rolls the update back.
func (s *Store) Update(oid object.OID, attrs map[string]object.Value) error {
	o, ok := s.objs[oid]
	if !ok {
		return fmt.Errorf("store %s: no object %s", s.Name(), oid)
	}
	if err := s.validateAttrs(o.class, attrs); err != nil {
		return err
	}
	saved := make(map[string]object.Value, len(attrs))
	had := make(map[string]bool, len(attrs))
	for k, v := range attrs {
		saved[k], had[k] = o.attrs[k]
		o.attrs[k] = v
	}
	if s.Enforce {
		if vs := s.checkTouched(o); len(vs) > 0 {
			for k := range attrs {
				if had[k] {
					o.attrs[k] = saved[k]
				} else {
					delete(o.attrs, k)
				}
			}
			return &ViolationError{vs}
		}
	}
	return nil
}

// Delete removes an object.
func (s *Store) Delete(oid object.OID) error {
	o, ok := s.objs[oid]
	if !ok {
		return fmt.Errorf("store %s: no object %s", s.Name(), oid)
	}
	s.removeObj(oid)
	if s.Enforce {
		// Deletions can violate database constraints (e.g. Figure 1 db1:
		// every Publisher has an Item); re-check and restore on failure.
		if vs := s.checkDatabaseConstraints(); len(vs) > 0 {
			s.objs[oid] = o
			s.byClass[o.class] = append(s.byClass[o.class], oid)
			return &ViolationError{vs}
		}
	}
	return nil
}

func (s *Store) removeObj(oid object.OID) {
	o := s.objs[oid]
	delete(s.objs, oid)
	lst := s.byClass[o.class]
	for i, x := range lst {
		if x == oid {
			s.byClass[o.class] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
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
		attrs := map[string]bool{}
		for _, a := range s.db.AllAttrs(self.class) {
			attrs[a.Name] = true
		}
		env.Vars = map[string]expr.Object{"self": self}
		env.SelfAttrs = attrs
	}
	return env
}

func (s *Store) extObjects(class string) []expr.Object {
	ext := s.Extent(class)
	out := make([]expr.Object, len(ext))
	for i, o := range ext {
		out[i] = o
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

// checkTouched validates the object's own constraints plus the class and
// database constraints of every class the object belongs to.
func (s *Store) checkTouched(o *Obj) []Violation {
	var out []Violation
	out = append(out, s.checkObjectConstraints(o)...)
	for _, cn := range s.db.Supers(o.class) {
		out = append(out, s.checkClassConstraints(cn)...)
	}
	out = append(out, s.checkDatabaseConstraints()...)
	return out
}

// checkObjectConstraints evaluates all (own + inherited) object
// constraints on one object.
func (s *Store) checkObjectConstraints(o *Obj) []Violation {
	var out []Violation
	env := s.Env(o)
	for _, c := range s.db.AllObjectConstraints(o.class) {
		n, ok := c.Expr.(expr.Node)
		if !ok {
			continue
		}
		holds, err := env.EvalBool(n)
		if err != nil {
			out = append(out, Violation{Constraint: c, Class: o.class, OID: o.oid, Detail: "evaluation failed: " + err.Error()})
			continue
		}
		if !holds {
			out = append(out, Violation{Constraint: c, Class: o.class, OID: o.oid, Detail: "object state " + o.String()})
		}
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
	// Class-constraint bodies may mention attributes via aggregates only;
	// key constraints go through EvalKey.
	for _, c := range ccs {
		n, ok := c.Expr.(expr.Node)
		if !ok {
			continue
		}
		holds, err := env.EvalBool(n)
		if err != nil {
			out = append(out, Violation{Constraint: c, Class: class, Detail: "evaluation failed: " + err.Error()})
			continue
		}
		if !holds {
			out = append(out, Violation{Constraint: c, Class: class, Detail: fmt.Sprintf("extension of %d objects", len(env.SelfExt))})
		}
	}
	return out
}

// checkDatabaseConstraints evaluates the database constraints.
func (s *Store) checkDatabaseConstraints() []Violation {
	var out []Violation
	if len(s.db.DBCons) == 0 {
		return nil
	}
	env := s.Env(nil)
	for _, c := range s.db.DBCons {
		n, ok := c.Expr.(expr.Node)
		if !ok {
			continue
		}
		holds, err := env.EvalBool(n)
		if err != nil {
			out = append(out, Violation{Constraint: c, Class: "", Detail: "evaluation failed: " + err.Error()})
			continue
		}
		if !holds {
			out = append(out, Violation{Constraint: c, Class: "", Detail: "database state"})
		}
	}
	return out
}

// CheckAll validates every constraint in the database and returns all
// violations (empty means consistent).
func (s *Store) CheckAll() []Violation {
	var out []Violation
	for _, cls := range s.db.Classes() {
		for _, o := range s.DirectExtent(cls.Name) {
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
