package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/tm"
)

// Side identifies a component database within an integration. A
// pairwise run uses exactly LocalSide and RemoteSide; a federated view
// (Conformed.Fed non-nil) indexes every attached member with its own
// Side value, assigned in attach order and never reused.
type Side int

// The two sides of a pairwise integration (and the first two member
// indexes of a federation).
const (
	LocalSide Side = iota
	RemoteSide
)

// String renders the side.
func (s Side) String() string {
	switch s {
	case LocalSide:
		return "local"
	case RemoteSide:
		return "remote"
	default:
		return fmt.Sprintf("member%d", int(s))
	}
}

// Other returns the opposite side of a pairwise integration. It is only
// meaningful for LocalSide/RemoteSide; federated rule clones carry their
// target side explicitly (SimRule.TargetSide).
func (s Side) Other() Side { return 1 - s }

// Status is the objectivity/subjectivity of a constraint (§5.1.1).
type Status int

// The statuses.
const (
	Objective Status = iota
	Subjective
)

// String renders the status.
func (s Status) String() string {
	if s == Objective {
		return "objective"
	}
	return "subjective"
}

// ConKey identifies a constraint within the federation.
type ConKey struct {
	DB, Class, Name string
}

// String renders the key.
func (k ConKey) String() string {
	if k.Class == "" {
		return k.DB + "." + k.Name
	}
	return k.DB + "." + k.Class + "." + k.Name
}

// PropEq is a compiled property equivalence assertion.
type PropEq struct {
	Raw      tm.PropEq
	CF       ConvFunc // local → common domain
	CFRemote ConvFunc // remote → common domain
	DF       DecisionFunc
	// Conformed is the name the property carries after conformation (the
	// remote attribute's name, per the paper's renaming examples), and
	// Type its conformed type.
	Conformed string
	Type      object.Type
	// Subjectivity per §5.1.2.
	LocalSubjective, RemoteSubjective bool
}

// EqRule is a compiled (non-descriptivity) object equality rule.
type EqRule struct {
	Raw         tm.Rule
	LocalVar    string
	LocalClass  string
	RemoteVar   string
	RemoteClass string
	IntraLocal  []expr.Node // conjuncts over the local object only
	IntraRemote []expr.Node // conjuncts over the remote object only
	Inter       []expr.Node // conjuncts over both
	// Conds holds the conjuncts in conformed terms, Inter first, then
	// IntraLocal and IntraRemote; Conform fills it (conformRules).
	Conds []expr.Node
}

// DescRule is a compiled descriptivity rule: values of the given
// attributes on one side describe an object of a class on the other side.
type DescRule struct {
	Raw tm.Rule
	// ValueSide is the side whose attribute values are objectified.
	ValueSide  Side
	ValueClass string
	ValueAttrs []string
	// ObjectClass is the class (on the other side) the virtual objects
	// correspond to.
	ObjectClass string
	ObjectVar   string
	ValueVar    string
	Cond        expr.Node
	// ValueView selects the paper's alternative conformation direction:
	// instead of objectifying the described values into a virtual class,
	// the objects of ObjectClass are hidden into complex (tuple) values,
	// and constraints involving that class are hidden with them (§4).
	ValueView bool
}

// SimRule is a compiled similarity rule: objects of SrcClass (on SrcSide)
// satisfying the intraobject condition are classified under Target (on
// the other side). Virtual non-empty makes it approximate similarity.
type SimRule struct {
	Raw      tm.Rule
	SrcSide  Side
	SrcVar   string
	SrcClass string
	Target   string
	Virtual  string
	Intra    []expr.Node
	// Conds holds Intra in conformed terms; Conform fills it
	// (conformRules), and a federated clone carries it along.
	Conds []expr.Node
	// tgtSide pins the target member explicitly for federated rule
	// clones, whose SrcSide indexes a member beyond the first pair (the
	// pairwise SrcSide.Other() arithmetic only covers sides 0 and 1).
	tgtSide    Side
	hasTgtSide bool
}

// Approximate reports whether the rule is approximate similarity.
func (r *SimRule) Approximate() bool { return r.Virtual != "" }

// TargetSide returns the side whose class the rule classifies matching
// objects under: the explicit member for federated clones, the opposite
// pair side otherwise.
func (r *SimRule) TargetSide() Side {
	if r.hasTgtSide {
		return r.tgtSide
	}
	return r.SrcSide.Other()
}

// SpecIssue is a non-fatal finding during spec compilation — most
// importantly violations of the consistency law "subjectivity of values
// implies subjectivity of constraints" (§5.1.3).
type SpecIssue struct {
	Severity   string // "error", "warning", "note"
	Code       string
	Key        ConKey
	Message    string
	Suggestion string
}

// String renders the issue.
func (i SpecIssue) String() string {
	s := fmt.Sprintf("[%s %s] %s: %s", i.Severity, i.Code, i.Key, i.Message)
	if i.Suggestion != "" {
		s += " — suggestion: " + i.Suggestion
	}
	return s
}

// Spec is a compiled integration specification.
type Spec struct {
	Local, Remote *tm.DatabaseSpec
	EqRules       []*EqRule
	DescRules     []*DescRule
	SimRules      []*SimRule
	PropEqs       []*PropEq
	// Status maps every constraint of both databases to its objectivity.
	Status map[ConKey]Status
	// Issues collects consistency-law violations and downgrades.
	Issues []SpecIssue
	// Seed drives the non-determinism of conflict-ignoring decision
	// functions during merging.
	Seed int64
	// DisableHashJoin forces nested-loop entity resolution; used by the
	// ablation benchmarks to quantify the hash-join design choice.
	DisableHashJoin bool
}

// DB returns the database spec of a side.
func (s *Spec) DB(side Side) *tm.DatabaseSpec {
	if side == LocalSide {
		return s.Local
	}
	return s.Remote
}

// PropEqFor finds the property equivalence covering the attribute as used
// on the given class and side (the propeq may be declared on a super- or
// subclass of the queried class).
func (s *Spec) PropEqFor(side Side, class, attr string) (*PropEq, bool) {
	db := s.DB(side).Schema
	for _, pe := range s.PropEqs {
		peClass, peAttr := pe.Raw.LocalClass, pe.Raw.LocalAttr
		if side == RemoteSide {
			peClass, peAttr = pe.Raw.RemoteClass, pe.Raw.RemoteAttr
		}
		if peAttr != attr {
			continue
		}
		if db.IsA(class, peClass) || db.IsA(peClass, class) {
			return pe, true
		}
	}
	return nil, false
}

// PropSubjective reports whether the attribute, as used on the given
// class and side, is subjective (§5.1.2). Attributes not covered by any
// property equivalence are single-source and therefore objective.
func (s *Spec) PropSubjective(side Side, class, attr string) bool {
	pe, ok := s.PropEqFor(side, class, attr)
	if !ok {
		return false
	}
	if side == LocalSide {
		return pe.LocalSubjective
	}
	return pe.RemoteSubjective
}

// Compile validates an integration specification against its component
// database specifications and computes the subjectivity assignment.
func Compile(local, remote *tm.DatabaseSpec, ispec *tm.IntegrationSpec) (*Spec, error) {
	if ispec.Local != local.Schema.Name || ispec.Remote != remote.Schema.Name {
		return nil, fmt.Errorf("integration header %s imports %s does not match databases %s, %s",
			ispec.Local, ispec.Remote, local.Schema.Name, remote.Schema.Name)
	}
	s := &Spec{Local: local, Remote: remote, Seed: 1}

	merged, prefix := mergedSchema(local.Schema, remote.Schema)
	constTypes := local.ConstTypes()
	maps.Copy(constTypes, remote.ConstTypes())

	for i := range ispec.PropEqs {
		pe, err := s.compilePropEq(&ispec.PropEqs[i])
		if err != nil {
			return nil, err
		}
		s.PropEqs = append(s.PropEqs, pe)
	}
	for i := range ispec.Rules {
		if err := s.compileRule(&ispec.Rules[i], merged, prefix, constTypes); err != nil {
			return nil, err
		}
	}
	for _, name := range ispec.ValueView {
		found := false
		for _, dr := range s.DescRules {
			if dr.Raw.Name == name {
				dr.ValueView = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("valueview %s does not name a descriptivity rule", name)
		}
	}
	if err := s.assignStatus(ispec.Marks); err != nil {
		return nil, err
	}
	return s, nil
}

// MustCompile compiles and panics on error; for fixtures and examples.
func MustCompile(local, remote *tm.DatabaseSpec, ispec *tm.IntegrationSpec) *Spec {
	s, err := Compile(local, remote, ispec)
	if err != nil {
		panic(fmt.Sprintf("core.MustCompile: %v", err))
	}
	return s
}

// mergedSchema builds a scratch schema holding both databases' classes so
// rule conditions can be type-checked; remote classes get a prefix to
// avoid name collisions (Employee/Employee in the intro example).
func mergedSchema(local, remote *schema.Database) (*schema.Database, string) {
	const prefix = "remote__"
	m := schema.NewDatabase("merged")
	for _, c := range local.Classes() {
		nc := &schema.Class{Name: c.Name, Super: c.Super}
		nc.Attrs = append([]schema.Attribute(nil), c.Attrs...)
		_ = m.AddClass(nc)
	}
	for _, c := range remote.Classes() {
		nc := &schema.Class{Name: prefix + c.Name}
		if c.Super != "" {
			nc.Super = prefix + c.Super
		}
		for _, a := range c.Attrs {
			t := a.Type
			if ct, ok := t.(object.ClassType); ok {
				t = object.ClassType{Class: prefix + ct.Class}
			}
			nc.Attrs = append(nc.Attrs, schema.Attribute{Name: a.Name, Type: t})
		}
		_ = m.AddClass(nc)
	}
	return m, prefix
}

func (s *Spec) compilePropEq(raw *tm.PropEq) (*PropEq, error) {
	localAttr, _, ok := resolveAttrOn(s.Local.Schema, raw.LocalClass, raw.LocalAttr)
	if !ok {
		return nil, fmt.Errorf("propeq %s: no attribute %s.%s in %s", raw.Src, raw.LocalClass, raw.LocalAttr, s.Local.Schema.Name)
	}
	remoteAttr, _, ok := resolveAttrOn(s.Remote.Schema, raw.RemoteClass, raw.RemoteAttr)
	if !ok {
		return nil, fmt.Errorf("propeq %s: no attribute %s.%s in %s", raw.Src, raw.RemoteClass, raw.RemoteAttr, s.Remote.Schema.Name)
	}
	cf, err := CompileConversion(raw.CF)
	if err != nil {
		return nil, fmt.Errorf("propeq %s: %w", raw.Src, err)
	}
	cfr, err := CompileConversion(raw.CFRemote)
	if err != nil {
		return nil, fmt.Errorf("propeq %s: %w", raw.Src, err)
	}
	df, err := CompileDecision(raw.DF, s.Local.Schema.Name, s.Remote.Schema.Name)
	if err != nil {
		return nil, fmt.Errorf("propeq %s: %w", raw.Src, err)
	}
	lt := cf.ApplyType(localAttr.Type.(object.Type))
	rt := cfr.ApplyType(remoteAttr.Type.(object.Type))
	if !compatFamily(lt, rt) {
		return nil, fmt.Errorf("propeq %s: converted domains %s and %s are incompatible", raw.Src, lt, rt)
	}
	pe := &PropEq{
		Raw:       *raw,
		CF:        cf,
		CFRemote:  cfr,
		DF:        df,
		Conformed: raw.RemoteAttr,
		Type:      rt,
	}
	// §5.1.2: subjectivity per decision-function kind.
	switch df.Kind() {
	case ConflictIgnoring:
		// both objective
	case ConflictAvoiding:
		trustLocal, _ := TrustsLocal(df)
		pe.LocalSubjective = !trustLocal
		pe.RemoteSubjective = trustLocal
	case ConflictSettling, ConflictEliminating:
		pe.LocalSubjective = true
		pe.RemoteSubjective = true
	}
	return pe, nil
}

// resolveAttrOn resolves an attribute on a class (own or inherited),
// returning the declaring class too.
func resolveAttrOn(db *schema.Database, class, attr string) (schema.Attribute, string, bool) {
	if _, ok := db.Class(class); !ok {
		return schema.Attribute{}, "", false
	}
	return db.ResolveAttr(class, attr)
}

func (s *Spec) compileRule(raw *tm.Rule, merged *schema.Database, prefix string, constTypes map[string]object.Type) error {
	// Resolve sides: a class name belongs to the side whose schema
	// declares it; when both declare it, the paper's convention applies
	// (first argument local for Eq; Sim source resolved so that the
	// target lands on the other side).
	inLocal := func(c string) bool { _, ok := s.Local.Schema.Class(c); return ok }
	inRemote := func(c string) bool { _, ok := s.Remote.Schema.Class(c); return ok }

	checkCond := func(vars map[string]string) error {
		ctx := &expr.CheckCtx{DB: merged, Consts: constTypes, Vars: vars}
		if err := expr.CheckConstraint(raw.Cond, ctx); err != nil {
			return fmt.Errorf("rule %s: %w", raw.Name, err)
		}
		return nil
	}

	switch raw.Kind {
	case tm.RuleEq:
		if raw.IsDescriptivity() {
			return s.compileDescRule(raw, checkCond, prefix, inLocal, inRemote)
		}
		c1Local := inLocal(raw.Class1)
		c2Remote := inRemote(raw.Class2)
		if !c1Local || !c2Remote {
			// Try the swapped orientation.
			if inLocal(raw.Class2) && inRemote(raw.Class1) && !(c1Local && c2Remote) {
				swapped := *raw
				swapped.Var1, swapped.Var2 = raw.Var2, raw.Var1
				swapped.Class1, swapped.Class2 = raw.Class2, raw.Class1
				swapped.Desc1, swapped.Desc2 = raw.Desc2, raw.Desc1
				return s.compileRule(&swapped, merged, prefix, constTypes)
			}
			return fmt.Errorf("rule %s: Eq(%s:%s, %s:%s) does not resolve to a local and a remote class",
				raw.Name, raw.Var1, raw.Class1, raw.Var2, raw.Class2)
		}
		if err := checkCond(map[string]string{raw.Var1: raw.Class1, raw.Var2: prefix + raw.Class2}); err != nil {
			return err
		}
		r := &EqRule{
			Raw: *raw, LocalVar: raw.Var1, LocalClass: raw.Class1,
			RemoteVar: raw.Var2, RemoteClass: raw.Class2,
		}
		for _, c := range splitConjuncts(raw.Cond) {
			vars := rootVars(c, map[string]bool{raw.Var1: true, raw.Var2: true})
			switch {
			case vars[raw.Var1] && vars[raw.Var2]:
				r.Inter = append(r.Inter, c)
			case vars[raw.Var1]:
				r.IntraLocal = append(r.IntraLocal, c)
			case vars[raw.Var2]:
				r.IntraRemote = append(r.IntraRemote, c)
			default:
				r.Inter = append(r.Inter, c)
			}
		}
		s.EqRules = append(s.EqRules, r)
		return nil
	case tm.RuleSim, tm.RuleSimApprox:
		var srcSide Side
		switch {
		case inLocal(raw.Class1) && inRemote(raw.Target):
			srcSide = LocalSide
		case inRemote(raw.Class1) && inLocal(raw.Target):
			srcSide = RemoteSide
		default:
			return fmt.Errorf("rule %s: Sim(%s:%s, %s) does not resolve across the two databases",
				raw.Name, raw.Var1, raw.Class1, raw.Target)
		}
		srcClass := raw.Class1
		if srcSide == RemoteSide {
			srcClass = prefix + raw.Class1
		}
		if err := checkCond(map[string]string{raw.Var1: srcClass}); err != nil {
			return err
		}
		r := &SimRule{
			Raw: *raw, SrcSide: srcSide, SrcVar: raw.Var1, SrcClass: raw.Class1,
			Target: raw.Target, Virtual: raw.Virtual,
			Intra: splitConjuncts(raw.Cond),
		}
		s.SimRules = append(s.SimRules, r)
		return nil
	default:
		return fmt.Errorf("rule %s: unsupported kind %s", raw.Name, raw.Kind)
	}
}

// compileDescRule compiles a descriptivity rule (Eq with value attributes
// on one argument).
func (s *Spec) compileDescRule(raw *tm.Rule, checkCond func(map[string]string) error, prefix string, inLocal, inRemote func(string) bool) error {
	var r DescRule
	r.Raw = *raw
	r.Cond = raw.Cond
	switch {
	case len(raw.Desc1) > 0 && len(raw.Desc2) == 0:
		// Eq(O:LocalClass.{attrs}, R:RemoteClass): local values describe
		// a remote-class object.
		if !inLocal(raw.Class1) || !inRemote(raw.Class2) {
			return fmt.Errorf("rule %s: descriptivity classes do not resolve", raw.Name)
		}
		r.ValueSide = LocalSide
		r.ValueClass = raw.Class1
		r.ValueAttrs = raw.Desc1
		r.ObjectClass = raw.Class2
		r.ValueVar = raw.Var1
		r.ObjectVar = raw.Var2
		if err := checkCond(map[string]string{raw.Var1: raw.Class1, raw.Var2: prefix + raw.Class2}); err != nil {
			return err
		}
	case len(raw.Desc2) > 0 && len(raw.Desc1) == 0:
		if !inLocal(raw.Class2) || !inRemote(raw.Class1) {
			return fmt.Errorf("rule %s: descriptivity classes do not resolve", raw.Name)
		}
		r.ValueSide = RemoteSide
		r.ValueClass = raw.Class2
		r.ValueAttrs = raw.Desc2
		r.ObjectClass = raw.Class1
		r.ValueVar = raw.Var2
		r.ObjectVar = raw.Var1
		if err := checkCond(map[string]string{raw.Var1: prefix + raw.Class1, raw.Var2: raw.Class2}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rule %s: descriptivity attributes on both arguments", raw.Name)
	}
	for _, a := range r.ValueAttrs {
		db := s.DB(r.ValueSide).Schema
		if _, _, ok := db.ResolveAttr(r.ValueClass, a); !ok {
			return fmt.Errorf("rule %s: no attribute %s.%s", raw.Name, r.ValueClass, a)
		}
	}
	s.DescRules = append(s.DescRules, &r)
	return nil
}

// assignStatus computes the Status map: designer marks, then defaults
// (object constraints objective, class and database constraints
// subjective), then the consistency law of §5.1.3.
func (s *Spec) assignStatus(marks []tm.Mark) error {
	s.Status = map[ConKey]Status{}
	marked := map[ConKey]bool{}

	apply := func(db *tm.DatabaseSpec, side Side) {
		for _, c := range db.Schema.Classes() {
			for _, k := range c.Constraints {
				key := ConKey{db.Schema.Name, c.Name, k.Name}
				if k.Kind == schema.ObjectConstraint {
					s.Status[key] = Objective
				} else {
					s.Status[key] = Subjective
				}
			}
		}
		for _, k := range db.Schema.DBCons {
			// §5.2.3: database constraints are subjective.
			s.Status[ConKey{db.Schema.Name, "", k.Name}] = Subjective
		}
	}
	apply(s.Local, LocalSide)
	apply(s.Remote, RemoteSide)

	for _, m := range marks {
		found := 0
		for key := range s.Status {
			if key.Class == m.Class && key.Name == m.Constraint {
				if m.Objective {
					s.Status[key] = Objective
				} else {
					s.Status[key] = Subjective
				}
				marked[key] = true
				found++
			}
		}
		if found == 0 {
			return fmt.Errorf("mark %s.%s does not match any constraint", m.Class, m.Constraint)
		}
	}

	// §5.2.3 is absolute: database constraints cannot be objective.
	var dbKeys []ConKey
	for key := range s.Status {
		if key.Class == "" && s.Status[key] == Objective {
			dbKeys = append(dbKeys, key)
		}
	}
	sort.Slice(dbKeys, func(i, j int) bool { return dbKeys[i].String() < dbKeys[j].String() })
	for _, key := range dbKeys {
		s.Issues = append(s.Issues, SpecIssue{
			Severity: "error", Code: "database-constraint-objective", Key: key,
			Message:    "database constraints are inherently subjective (§5.2.3)",
			Suggestion: "remove the objective mark",
		})
		s.Status[key] = Subjective
	}

	// Consistency law (§5.1.3): constraints over subjective properties
	// must be subjective.
	check := func(db *tm.DatabaseSpec, side Side) {
		for _, c := range db.Schema.Classes() {
			for _, k := range c.Constraints {
				key := ConKey{db.Schema.Name, c.Name, k.Name}
				if s.Status[key] != Objective {
					continue
				}
				var subjAttrs []string
				for attr := range expr.AttrsUsed(k.Expr.(expr.Node)) {
					root := attr
					if i := strings.Index(root, "."); i >= 0 {
						root = root[:i]
					}
					if _, _, ok := db.Schema.ResolveAttr(c.Name, root); !ok {
						continue // a constant, not an attribute
					}
					if s.PropSubjective(side, c.Name, root) {
						subjAttrs = append(subjAttrs, root)
					}
				}
				if len(subjAttrs) == 0 {
					continue
				}
				sort.Strings(subjAttrs)
				if marked[key] {
					s.Issues = append(s.Issues, SpecIssue{
						Severity: "error", Code: "subjectivity-law", Key: key,
						Message:    fmt.Sprintf("declared objective but involves subjective properties %v (value subjectivity implies constraint subjectivity, §5.1.3)", subjAttrs),
						Suggestion: fmt.Sprintf("mark %s subjective, or change the decision functions on %v", key, subjAttrs),
					})
				} else {
					s.Issues = append(s.Issues, SpecIssue{
						Severity: "note", Code: "auto-subjective", Key: key,
						Message: fmt.Sprintf("defaulted to subjective: involves subjective properties %v", subjAttrs),
					})
				}
				s.Status[key] = Subjective
			}
		}
	}
	check(s.Local, LocalSide)
	check(s.Remote, RemoteSide)
	return nil
}

// splitConjuncts flattens top-level conjunctions.
func splitConjuncts(n expr.Node) []expr.Node {
	if b, ok := n.(expr.Binary); ok && b.Op == expr.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []expr.Node{n}
}

// rootVars collects which of the given variables a condition references.
func rootVars(n expr.Node, vars map[string]bool) map[string]bool {
	out := map[string]bool{}
	expr.Walk(n, func(x expr.Node) bool {
		if id, ok := x.(expr.Ident); ok && vars[id.Name] {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// compatFamily mirrors the type checker's comparability notion.
func compatFamily(a, b object.Type) bool {
	if object.Numeric(a) && object.Numeric(b) {
		return true
	}
	switch a := a.(type) {
	case object.BasicType:
		bb, ok := b.(object.BasicType)
		return ok && a.K == bb.K
	case object.SetType:
		bs, ok := b.(object.SetType)
		return ok && compatFamily(a.Elem, bs.Elem)
	case object.ClassType:
		// An object-valued remote property can be equivalent to a local
		// string property through a descriptivity relationship; that pair
		// is conformed via the virtual class, so accept it here.
		return true
	}
	if _, ok := b.(object.ClassType); ok {
		return true
	}
	return false
}
