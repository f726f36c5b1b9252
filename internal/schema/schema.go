// Package schema models the structural part of a TM-style object database:
// named classes with typed attributes, single-inheritance isa hierarchies,
// and the attachment points for object, class and database constraints.
//
// Constraints themselves are ASTs from internal/expr; schema stores them
// untyped (as interface{} via the Constraint indirection) so that the
// packages stay acyclic: expr depends on schema for attribute lookup, and
// schema only carries constraint declarations through.
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ConstraintKind distinguishes the three constraint scopes of the paper
// (§2): object constraints range over a single (complex) object and are
// implicitly universally quantified over the class extension; class
// constraints range over the extension of one class (aggregates, keys);
// database constraints relate objects of different classes.
type ConstraintKind int

// The constraint scopes.
const (
	ObjectConstraint ConstraintKind = iota
	ClassConstraint
	DatabaseConstraint
)

// String returns the scope name used in specs.
func (k ConstraintKind) String() string {
	switch k {
	case ObjectConstraint:
		return "object"
	case ClassConstraint:
		return "class"
	case DatabaseConstraint:
		return "database"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Constraint is a named, scoped constraint declaration. Expr holds the
// parsed formula (an *expr.Expr); it is typed as any to keep schema free
// of a dependency on the expression package.
type Constraint struct {
	Name  string // e.g. "oc1", "cc2", "db1"
	Kind  ConstraintKind
	Class string // owning class; empty for database constraints
	Expr  any    // *expr.Node
	Src   string // original source text, for reports
}

// Attribute is a typed attribute declaration on a class. Type is an
// object.Type held as any for the same acyclicity reason (it is always an
// object.Type in practice; helpers in internal/expr assert it).
type Attribute struct {
	Name string
	Type any // object.Type
}

// Class is a class declaration: attributes, optional superclass, and the
// constraints declared directly on it.
type Class struct {
	Name        string
	Super       string // "" for roots
	Attrs       []Attribute
	Constraints []Constraint
	// Virtual marks classes synthesised during integration
	// (VirtPublisher, virtual sub/superclasses) rather than declared.
	Virtual bool
}

// AttrNames returns the declared attribute names in order.
func (c *Class) AttrNames() []string {
	out := make([]string, len(c.Attrs))
	for i, a := range c.Attrs {
		out[i] = a.Name
	}
	return out
}

// Attr returns the directly declared attribute, if present.
func (c *Class) Attr(name string) (Attribute, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// Database is a named schema: an ordered collection of classes plus
// database constraints.
type Database struct {
	Name    string
	classes map[string]*Class
	order   []string
	DBCons  []Constraint
}

// NewDatabase creates an empty database schema.
func NewDatabase(name string) *Database {
	return &Database{Name: name, classes: make(map[string]*Class)}
}

// AddClass registers a class. It is an error to redeclare a class or to
// name a superclass that is not (yet) declared and never declared later;
// use Validate to check referential integrity after loading.
func (d *Database) AddClass(c *Class) error {
	if _, dup := d.classes[c.Name]; dup {
		return fmt.Errorf("schema %s: class %s redeclared", d.Name, c.Name)
	}
	d.classes[c.Name] = c
	d.order = append(d.order, c.Name)
	return nil
}

// Class looks up a class by name.
func (d *Database) Class(name string) (*Class, bool) {
	c, ok := d.classes[name]
	return c, ok
}

// MustClass looks up a class and panics if absent; for tests and examples
// operating on known-good schemas.
func (d *Database) MustClass(name string) *Class {
	c, ok := d.classes[name]
	if !ok {
		panic(fmt.Sprintf("schema %s: no class %s", d.Name, name))
	}
	return c
}

// Classes returns the classes in declaration order.
func (d *Database) Classes() []*Class {
	out := make([]*Class, len(d.order))
	for i, n := range d.order {
		out[i] = d.classes[n]
	}
	return out
}

// ClassNames returns the class names in declaration order.
func (d *Database) ClassNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Supers returns the inheritance chain of the class from itself up to the
// root, e.g. RefereedPubl → ScientificPubl → Publication. The chain stops
// at an undeclared class and, on a cyclic hierarchy, at the first repeat
// (Validate's cycle detection reads the cycle off that last link).
func (d *Database) Supers(name string) []string {
	// A repeat-free chain has at most len(classes) links, which bounds
	// the depth count that sizes the result.
	depth := 0
	for c, ok := d.classes[name]; ok && depth < len(d.classes); c, ok = d.super(c) {
		depth++
	}
	if depth == 0 {
		return nil
	}
	chain := make([]string, 0, depth)
	for c, ok := d.classes[name]; ok && !slices.Contains(chain, c.Name); c, ok = d.super(c) {
		chain = append(chain, c.Name)
	}
	return chain
}

// super steps to the declared superclass; false at a root and at an
// undeclared superclass.
func (d *Database) super(c *Class) (*Class, bool) {
	if c.Super == "" {
		return nil, false
	}
	s, ok := d.classes[c.Super]
	return s, ok
}

// IsA reports whether sub is the same as, or a (transitive) subclass of,
// super in the declared hierarchy. An undeclared sub is nothing's
// subclass, not even its own.
func (d *Database) IsA(sub, super string) bool {
	steps := 0
	for c, ok := d.classes[sub]; ok && steps < len(d.classes); c, ok = d.super(c) {
		if c.Name == super {
			return true
		}
		steps++
	}
	return false
}

// Subclasses returns the names of all declared strict subclasses of the
// given class, in declaration order.
func (d *Database) Subclasses(name string) []string {
	var out []string
	for _, n := range d.order {
		if n != name && d.IsA(n, name) {
			out = append(out, n)
		}
	}
	return out
}

// AllAttrs resolves the attributes visible on a class including inherited
// ones, nearest declaration winning on name clashes (TM allows refinement;
// we implement override-by-name).
func (d *Database) AllAttrs(name string) []Attribute {
	var out []Attribute
	seen := map[string]bool{}
	for _, cn := range d.Supers(name) {
		c := d.classes[cn]
		for _, a := range c.Attrs {
			if !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// ResolveAttr finds the attribute as visible on the class (own or
// inherited) together with the class that declares it: the nearest
// declaration wins.
func (d *Database) ResolveAttr(class, attr string) (Attribute, string, bool) {
	steps := 0
	for c, ok := d.classes[class]; ok && steps < len(d.classes); c, ok = d.super(c) {
		if a, ok := c.Attr(attr); ok {
			return a, c.Name, true
		}
		steps++
	}
	return Attribute{}, "", false
}

// AllObjectConstraints returns the object constraints applying to a class:
// its own plus all inherited ones (object constraints are inheritable,
// §5.2.2). Class constraints are NOT inherited.
func (d *Database) AllObjectConstraints(name string) []Constraint {
	var out []Constraint
	for _, cn := range d.Supers(name) {
		for _, c := range d.classes[cn].Constraints {
			if c.Kind == ObjectConstraint {
				out = append(out, c)
			}
		}
	}
	return out
}

// OwnConstraints returns the constraints declared directly on the class
// with the given scope.
func (d *Database) OwnConstraints(name string, kind ConstraintKind) []Constraint {
	c, ok := d.classes[name]
	if !ok {
		return nil
	}
	var out []Constraint
	for _, k := range c.Constraints {
		if k.Kind == kind {
			out = append(out, k)
		}
	}
	return out
}

// Validate checks referential integrity: every superclass exists, the isa
// graph is acyclic, attribute names are unique per class, and constraint
// scopes are well-placed (database constraints attached to the database,
// not a class).
func (d *Database) Validate() error {
	var errs []string
	for _, name := range d.order {
		c := d.classes[name]
		if c.Super != "" {
			if _, ok := d.classes[c.Super]; !ok {
				errs = append(errs, fmt.Sprintf("class %s: unknown superclass %s", name, c.Super))
			}
		}
		seen := map[string]bool{}
		for _, a := range c.Attrs {
			if seen[a.Name] {
				errs = append(errs, fmt.Sprintf("class %s: duplicate attribute %s", name, a.Name))
			}
			seen[a.Name] = true
		}
		for _, k := range c.Constraints {
			if k.Kind == DatabaseConstraint {
				errs = append(errs, fmt.Sprintf("class %s: database constraint %s attached to a class", name, k.Name))
			}
		}
	}
	// Cycle detection: walk each chain; Supers stops on repeats, so a
	// cycle shows up as a chain whose last element has a Super that is
	// already in the chain.
	for _, name := range d.order {
		chain := d.Supers(name)
		last := d.classes[chain[len(chain)-1]]
		if last != nil && last.Super != "" {
			for _, s := range chain {
				if s == last.Super {
					errs = append(errs, fmt.Sprintf("class %s: isa cycle through %s", name, last.Super))
					break
				}
			}
		}
	}
	for _, k := range d.DBCons {
		if k.Kind != DatabaseConstraint {
			errs = append(errs, fmt.Sprintf("database constraint %s has scope %s", k.Name, k.Kind))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("schema %s invalid:\n  %s", d.Name, strings.Join(errs, "\n  "))
	}
	return nil
}

// Clone deep-copies the schema (classes, attributes and constraint slices;
// constraint Expr pointers are shared, which is safe because ASTs are
// immutable once parsed).
func (d *Database) Clone() *Database {
	nd := NewDatabase(d.Name)
	for _, name := range d.order {
		c := d.classes[name]
		nc := &Class{Name: c.Name, Super: c.Super, Virtual: c.Virtual}
		nc.Attrs = append([]Attribute(nil), c.Attrs...)
		nc.Constraints = append([]Constraint(nil), c.Constraints...)
		nd.classes[name] = nc
		nd.order = append(nd.order, name)
	}
	nd.DBCons = append([]Constraint(nil), d.DBCons...)
	return nd
}

// Roots returns the classes with no superclass, in declaration order.
func (d *Database) Roots() []string {
	var out []string
	for _, n := range d.order {
		if d.classes[n].Super == "" {
			out = append(out, n)
		}
	}
	return out
}
