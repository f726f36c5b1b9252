package core

import (
	"fmt"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// Scope qualifies which members of a global class a global constraint
// applies to, reflecting the paper's distinction between objects present
// in one database only (whose global state is entirely local, so all
// local constraints hold) and genuinely merged objects (where decision
// functions intervene).
type Scope int

// The scopes.
const (
	ScopeAll Scope = iota
	ScopeMerged
	ScopeLocalOnly
	ScopeRemoteOnly
)

// String renders the scope.
func (s Scope) String() string {
	switch s {
	case ScopeAll:
		return "all"
	case ScopeMerged:
		return "merged"
	case ScopeLocalOnly:
		return "local-only"
	case ScopeRemoteOnly:
		return "remote-only"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// GlobalConstraint is a constraint on the integrated view.
type GlobalConstraint struct {
	Classes    []string
	Scope      Scope
	Kind       schema.ConstraintKind
	Expr       expr.Node
	Origin     []ConKey
	Derivation string // "objective", "derived(avg)", "key-propagation", ...
	// Provenance lists, in a federated view, the pair tags (the attached
	// member's database name identifies each pair) whose derivations
	// contributed this constraint. Detaching a member retracts every
	// constraint whose provenance empties — the federation's constraint
	// retraction rule. Pairwise results leave it nil.
	Provenance []string
}

// SourceDBs lists the component databases the constraint's origin keys
// reference, deduplicated in first-mention order — the stores whose
// locally enforced constraints this global constraint was derived from.
// Constraints synthesized without origin keys (e.g. approximate-
// similarity disjunctions) return nil; their membership dependency is
// carried by Provenance instead.
func (g GlobalConstraint) SourceDBs() []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range g.Origin {
		if !seen[k.DB] {
			seen[k.DB] = true
			out = append(out, k.DB)
		}
	}
	return out
}

// String renders the constraint.
func (g GlobalConstraint) String() string {
	return fmt.Sprintf("on %s [%s, %s]: %s", strings.Join(g.Classes, "+"), g.Scope, g.Derivation, g.Expr)
}

// ConflictKind classifies detected conflicts.
type ConflictKind int

// The conflict kinds of §3 and §5.2.1.
const (
	// ConflictRuleVsConstraint: a rule's intraobject condition is
	// inconsistent with the object constraints of the class it selects
	// from (§3, first consequence).
	ConflictRuleVsConstraint ConflictKind = iota
	// ConflictExplicit: the integrated object constraint set is
	// unsatisfiable (§5.2.1: "h ⊨ false").
	ConflictExplicit
	// ConflictImplicit: an objective constraint touches a property with
	// a conflict-ignoring decision function and the other side does not
	// guarantee the constraint, so a global state may violate it.
	ConflictImplicit
	// ConflictStrictSim: a strict-similarity rule admits objects that
	// are not provably valid members of the target class (Ω' ⊭ Ω̂).
	ConflictStrictSim
)

// String renders the kind.
func (k ConflictKind) String() string {
	switch k {
	case ConflictRuleVsConstraint:
		return "rule-vs-constraint"
	case ConflictExplicit:
		return "explicit"
	case ConflictImplicit:
		return "implicit"
	case ConflictStrictSim:
		return "strict-similarity"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SuggestionKind classifies repair options (§5.2.1's three options plus
// the approximate-similarity fallback).
type SuggestionKind int

// The repair options.
const (
	SuggestMarkSubjective SuggestionKind = iota
	SuggestStrengthenRule
	SuggestAddApproxRule
	SuggestChangeDecision
)

// String renders the kind.
func (k SuggestionKind) String() string {
	switch k {
	case SuggestMarkSubjective:
		return "mark-subjective"
	case SuggestStrengthenRule:
		return "strengthen-rule"
	case SuggestAddApproxRule:
		return "add-approx-rule"
	case SuggestChangeDecision:
		return "change-decision-function"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Suggestion is a concrete repair proposal.
type Suggestion struct {
	Kind SuggestionKind
	Text string
	// NewRuleSrc holds a ready-to-parse replacement or additional rule
	// when the suggestion rewrites the specification.
	NewRuleSrc string
}

// Conflict is a detected inconsistency between local constraints and the
// integration specification.
type Conflict struct {
	Kind        ConflictKind
	Where       string // rule name or class-pair description
	Detail      string
	Involved    []ConKey
	Suggestions []Suggestion
}

// String renders the conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("[%s] %s: %s", c.Kind, c.Where, c.Detail)
}

// Derivation is the result of constraint integration: the global
// constraint set, the §3 derived constraints per similarity rule, and all
// detected conflicts.
type Derivation struct {
	View      *GlobalView
	Checker   *logic.Checker
	Global    []GlobalConstraint
	Conflicts []Conflict
	// DerivedOnSim maps each similarity rule name to the §3 derived
	// object constraints holding for the objects it selects.
	DerivedOnSim map[string][]expr.Node
	Notes        []string
	// unsafe marks constraints whose strict-similarity check failed for
	// some rule: they are withheld from the global view by filterUnsafe.
	unsafe map[ConKey]bool
	opts   Options
}

// CacheStats reports the reasoner-cache effectiveness of this run.
func (d *Derivation) CacheStats() logic.CacheStats { return d.Checker.CacheStats() }

// Derive runs constraint integration over a merged view with default
// options (full parallelism, memoized reasoning).
func Derive(v *GlobalView) *Derivation { return DeriveOptions(v, Options{}) }

// DeriveOptions runs constraint integration over a merged view. The
// reasoning-heavy stages — similarity checking (§3, §5.2.1), class-pair
// constraint integration (§5.2.1) and approximate-similarity derivation
// — fan out across a bounded worker pool; each unit of work collects
// its outputs privately and the results are merged in the stable
// sequential order, so the Derivation is identical for any Parallelism.
func DeriveOptions(v *GlobalView, opts Options) *Derivation {
	d := &Derivation{
		View:         v,
		Checker:      &logic.Checker{Types: v.Conformed.Types, NoMemo: opts.NoMemo, Memo: opts.Memo},
		DerivedOnSim: map[string][]expr.Node{},
		unsafe:       map[ConKey]bool{},
		opts:         opts,
	}
	d.simRules()
	d.equalityIntegration()
	d.classConstraints()
	d.databaseConstraints()
	d.approxSimilarity()
	d.filterUnsafe()
	return d
}

// filterUnsafe removes objective global constraints invalidated by an
// unresolved strict-similarity conflict: a Sim rule admits members of the
// class that are not provably valid, so the constraint cannot be assumed
// to hold for the whole global extension until the designer repairs the
// specification (the paper's role 2). Each removal leaves a note.
func (d *Derivation) filterUnsafe() {
	if len(d.unsafe) == 0 {
		return
	}
	kept := d.Global[:0]
	for _, gc := range d.Global {
		drop := false
		if gc.Derivation == "objective" {
			for _, k := range gc.Origin {
				if d.unsafe[k] {
					drop = true
					break
				}
			}
		}
		if drop {
			d.Notes = append(d.Notes, fmt.Sprintf(
				"objective constraint %s withheld from the global view: an unresolved strict-similarity conflict means imported members may violate it (repair the specification to restore it)", gc.Origin[0]))
			continue
		}
		kept = append(kept, gc)
	}
	d.Global = kept
}

// exprsOf extracts usable (non-imperfect) constraint expressions.
func exprsOf(cons []CCon) []expr.Node {
	var out []expr.Node
	for _, c := range cons {
		if c.Imperfect {
			continue
		}
		out = append(out, c.Expr)
	}
	return out
}

// simOut is one similarity rule's contribution: collected privately by
// a pool worker, merged into the Derivation in rule order.
type simOut struct {
	// skip marks a rule whose intraobject condition conflicts with the
	// source constraints: nothing is derived for it.
	skip      bool
	derived   []expr.Node
	conflicts []Conflict
	globals   []GlobalConstraint
	unsafe    []ConKey
}

// simRules implements §3 (intraobject conditions vs object constraints,
// derived constraints) and the strict-similarity integration of §5.2.1.
// Rules are independent, so they fan out across the worker pool; the
// per-rule outputs merge in declaration order.
func (d *Derivation) simRules() {
	rules := d.View.Conformed.Spec.SimRules
	outs := make([]simOut, len(rules))
	parallelFor(len(rules), d.opts.workers(), func(i int) {
		outs[i] = d.simRule(rules[i])
	})
	for i, r := range rules {
		o := outs[i]
		d.Conflicts = append(d.Conflicts, o.conflicts...)
		if o.skip {
			continue
		}
		d.DerivedOnSim[r.Raw.Name] = o.derived
		for _, k := range o.unsafe {
			d.unsafe[k] = true
		}
		for _, gc := range o.globals {
			d.addGlobal(gc)
		}
	}
}

// simRule processes one similarity rule. It only reads shared state
// (the conformed world and the concurrency-safe Checker) and writes to
// its private simOut.
func (d *Derivation) simRule(r *SimRule) simOut {
	c := d.View.Conformed
	var out simOut
	conds := r.Conds
	// Reasoning happens in self-rooted form: R.ref? and a class
	// constraint's ref? are the same property.
	selfConds := selfRooted(conds, r.SrcVar)
	srcCons := c.ConsOn(r.SrcSide, r.SrcClass, schema.ObjectConstraint)
	premises := append([]expr.Node{}, selfConds...)
	premises = append(premises, exprsOf(srcCons)...)

	// (§3) The intraobject condition must not conflict with the
	// source class's object constraints.
	if d.Checker.Conflicting(premises...) == logic.Yes {
		out.skip = true
		out.conflicts = append(out.conflicts, Conflict{
			Kind:   ConflictRuleVsConstraint,
			Where:  "rule " + r.Raw.Name,
			Detail: fmt.Sprintf("intraobject condition %s is inconsistent with the object constraints of %s", condText(conds), r.SrcClass),
			Suggestions: []Suggestion{{
				Kind: SuggestStrengthenRule,
				Text: "the rule can never fire; revise its condition",
			}},
		})
		return out
	}

	// (§3) Derived object constraints: implications whose guard is
	// entailed by the premises resolve to their consequents.
	derived := append([]expr.Node{}, selfConds...)
	for _, con := range srcCons {
		if con.Imperfect {
			continue
		}
		for _, n := range logic.Normalize(con.Expr) {
			if b, ok := n.(expr.Binary); ok && b.Op == expr.OpImplies {
				if d.Checker.Entails(premises, b.L) == logic.Yes {
					derived = append(derived, b.R)
					continue
				}
			}
			derived = append(derived, n)
		}
	}
	out.derived = derived

	if r.Approximate() {
		return out // handled by approxSimilarity
	}

	// (§5.2.1, strict similarity): Ω' must entail every object
	// constraint of the target class.
	targetSide := r.SrcSide.Other()
	tgtCons := c.ConsOn(targetSide, r.Target, schema.ObjectConstraint)
	for _, tc := range tgtCons {
		if tc.Imperfect {
			continue
		}
		verdict := d.Checker.Entails(derived, tc.Expr)
		if verdict == logic.Yes {
			continue
		}
		detail := fmt.Sprintf("objects selected by %s are not provably valid members of %s: derived constraints %s do not entail %s (%s)",
			r.Raw.Name, r.Target, condText(derived), tc.Expr, verdictWord(verdict))
		// Suggested rule text must use rule syntax: the added
		// condition's attributes are var-rooted.
		added := varRooted(tc.Expr, r.SrcVar, c.SchemaOf(r.SrcSide), r.SrcClass)
		strengthened := fmt.Sprintf("rule %s: Sim(%s:%s, %s) <= %s and %s",
			r.Raw.Name, r.SrcVar, r.SrcClass, r.Target, condText(conds), added)
		approx := fmt.Sprintf("rule %s_approx: Sim(%s:%s, %s, %sLike) <= %s and not (%s)",
			r.Raw.Name, r.SrcVar, r.SrcClass, r.Target, r.Target, condText(conds), added)
		out.unsafe = append(out.unsafe, tc.Key)
		out.conflicts = append(out.conflicts, Conflict{
			Kind:     ConflictStrictSim,
			Where:    "rule " + r.Raw.Name,
			Detail:   detail,
			Involved: []ConKey{tc.Key},
			// §5.2.1's strict-similarity resolutions: strengthen the
			// rule's condition, optionally catching the excluded
			// objects with an approximate-similarity fallback.
			Suggestions: []Suggestion{
				{Kind: SuggestStrengthenRule,
					Text:       fmt.Sprintf("add %s as an intraobject condition to %s", tc.Expr, r.Raw.Name),
					NewRuleSrc: strengthened},
				{Kind: SuggestAddApproxRule,
					Text:       "classify the remaining objects under a virtual superclass via approximate similarity",
					NewRuleSrc: approx},
			},
		})
	}

	// Valid strictly-similar members extend the target class: its
	// objective object constraints apply to all members; the derived
	// constraints hold for the imported ones.
	tgtGlobal := d.View.GlobalName(targetSide, r.Target)
	for _, tc := range tgtCons {
		if tc.Status == Objective && !tc.Imperfect {
			out.globals = append(out.globals, GlobalConstraint{
				Classes: []string{tgtGlobal}, Scope: ScopeAll,
				Kind: schema.ObjectConstraint, Expr: tc.Expr,
				Origin: []ConKey{tc.Key}, Derivation: "objective",
			})
		}
	}
	return out
}

func verdictWord(v logic.Verdict) string {
	if v == logic.No {
		return "refuted"
	}
	return "not provable"
}

// varRooted rewrites self-rooted attributes of the class into the rule
// variable's dotted form (rating → R.rating), producing valid rule-
// condition syntax for repair suggestions.
func varRooted(n expr.Node, varName string, db *schema.Database, class string) expr.Node {
	return expr.Rewrite(n, func(x expr.Node) expr.Node {
		if id, ok := x.(expr.Ident); ok {
			if _, _, ok := db.ResolveAttr(class, id.Name); ok {
				return expr.Path{Recv: expr.Ident{Name: varName}, Attr: id.Name}
			}
		}
		return nil
	})
}

// selfRooted rewrites var-rooted attribute paths (R.ref?) into the
// implicit-self form (ref?) used by class constraints, so that rule
// conditions and constraints talk about the same properties.
func selfRooted(conds []expr.Node, varName string) []expr.Node {
	out := make([]expr.Node, len(conds))
	for i, n := range conds {
		out[i] = expr.Rewrite(n, func(x expr.Node) expr.Node {
			if p, ok := x.(expr.Path); ok {
				if id, ok := p.Recv.(expr.Ident); ok && id.Name == varName {
					return expr.Ident{Name: p.Attr}
				}
			}
			return nil
		})
	}
	return out
}

func condText(conds []expr.Node) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " and ")
}

// equalityIntegration implements §5.2.1 for object equality: objective
// constraints become global; subjective restrictions combine through the
// decision functions under the paper's necessary conditions; explicit and
// implicit conflicts are detected.
//
// Instance-based pairing: besides the class pairs the equality rules are
// declared on, every (most-specific local, most-specific remote) class
// pair observed among actually merged objects is integrated — this is
// what pairs ScientificPubl with Proceedings in the paper's §5.2.1
// example even though the rule is declared on Publication/Item.
func (d *Derivation) equalityIntegration() {
	c := d.View.Conformed
	type pair struct{ l, r string }
	seen := map[pair]string{}
	var orderKeys []pair
	add := func(l, r, where string) {
		p := pair{l, r}
		if _, ok := seen[p]; ok {
			return
		}
		seen[p] = where
		orderKeys = append(orderKeys, p)
	}
	for _, r := range c.Spec.EqRules {
		add(r.LocalClass, r.RemoteClass, "rule "+r.Raw.Name)
	}
	for _, r := range c.ImpliedEq {
		add(r.LocalClass, r.RemoteClass, "rule "+r.Raw.Name)
	}
	for _, g := range d.View.Objects {
		if !g.Merged() {
			continue
		}
		for _, lm := range g.PartsOf(LocalSide) {
			for _, rm := range g.PartsOf(RemoteSide) {
				if _, ok := seen[pair{lm.Class, rm.Class}]; !ok { // the note is built once per pair
					add(lm.Class, rm.Class, fmt.Sprintf("merged %s/%s objects", lm.Class, rm.Class))
				}
			}
		}
	}
	// Class pairs are independent: fan them out, then merge per-pair
	// outputs in first-seen pair order. addGlobal deduplicates at merge
	// time, exactly as the sequential interleaving did.
	outs := make([]pairOut, len(orderKeys))
	parallelFor(len(orderKeys), d.opts.workers(), func(i int) {
		p := orderKeys[i]
		outs[i] = d.integratePair(p.l, p.r, seen[p])
	})
	for _, o := range outs {
		for _, gc := range o.globals {
			d.addGlobal(gc)
		}
		d.Conflicts = append(d.Conflicts, o.conflicts...)
	}
}

// pairOut is one class pair's contribution, collected privately by a
// pool worker and merged in pair order.
type pairOut struct {
	globals   []GlobalConstraint
	conflicts []Conflict
}

// pathsUsed collects the full dotted attribute paths a formula mentions
// (publisher.name, not just publisher).
func pathsUsed(n expr.Node) map[string]bool {
	out := map[string]bool{}
	expr.Walk(n, func(x expr.Node) bool {
		switch x.(type) {
		case expr.Path, expr.Ident:
			if p, ok := expr.PathString(x); ok {
				out[p] = true
				return false // don't descend into sub-paths
			}
		}
		return true
	})
	return out
}

// integratePair integrates one (local, remote) class pair's constraint
// sets. It reads only shared immutable state plus the concurrency-safe
// Checker, and returns its contribution for ordered merging.
func (d *Derivation) integratePair(localClass, remoteClass, where string) pairOut {
	c := d.View.Conformed
	var out pairOut
	lCons := c.ConsOn(LocalSide, localClass, schema.ObjectConstraint)
	rCons := c.ConsOn(RemoteSide, remoteClass, schema.ObjectConstraint)
	lGlobal := d.View.GlobalName(LocalSide, localClass)
	rGlobal := d.View.GlobalName(RemoteSide, remoteClass)
	pairClasses := []string{lGlobal, rGlobal}

	var merged []expr.Node // integrated constraints for merged objects

	// Objective constraints are global (scope all: they hold beyond the
	// defining database's context by definition).
	for _, con := range lCons {
		if con.Status == Objective && !con.Imperfect {
			out.globals = append(out.globals, GlobalConstraint{
				Classes: []string{lGlobal}, Scope: ScopeAll,
				Kind: schema.ObjectConstraint, Expr: con.Expr,
				Origin: []ConKey{con.Key}, Derivation: "objective",
			})
			merged = append(merged, con.Expr)
		}
	}
	for _, con := range rCons {
		if con.Status == Objective && !con.Imperfect {
			out.globals = append(out.globals, GlobalConstraint{
				Classes: []string{rGlobal}, Scope: ScopeAll,
				Kind: schema.ObjectConstraint, Expr: con.Expr,
				Origin: []ConKey{con.Key}, Derivation: "objective",
			})
			merged = append(merged, con.Expr)
		}
	}

	// Subjective constraints still hold for objects present on one side
	// only (their global state is entirely that side's state).
	for _, con := range lCons {
		if con.Status == Subjective && !con.Imperfect {
			out.globals = append(out.globals, GlobalConstraint{
				Classes: []string{lGlobal}, Scope: ScopeLocalOnly,
				Kind: schema.ObjectConstraint, Expr: con.Expr,
				Origin: []ConKey{con.Key}, Derivation: "subjective-single-source",
			})
		}
	}
	for _, con := range rCons {
		if con.Status == Subjective && !con.Imperfect {
			out.globals = append(out.globals, GlobalConstraint{
				Classes: []string{rGlobal}, Scope: ScopeRemoteOnly,
				Kind: schema.ObjectConstraint, Expr: con.Expr,
				Origin: []ConKey{con.Key}, Derivation: "subjective-single-source",
			})
		}
	}

	// Derivation from subjective restrictions (§5.2.1's necessary
	// conditions, via the decision-function transformers).
	lRestr := d.restrictions(lCons)
	rRestr := d.restrictions(rCons)
	for _, lr := range lRestr {
		for _, rr := range rRestr {
			if lr.r.Path != rr.r.Path {
				continue
			}
			gc, ok := d.combine(lr, rr, pairClasses)
			if !ok {
				continue
			}
			out.globals = append(out.globals, gc)
			merged = append(merged, gc.Expr)
		}
	}

	// Explicit conflict: the integrated set for merged objects is
	// inconsistent.
	if len(merged) > 0 && d.Checker.Conflicting(merged...) == logic.Yes {
		out.conflicts = append(out.conflicts, Conflict{
			Kind:   ConflictExplicit,
			Where:  where,
			Detail: fmt.Sprintf("integrated object constraints for merged %s/%s objects are inconsistent", localClass, remoteClass),
			Suggestions: []Suggestion{
				{Kind: SuggestMarkSubjective, Text: "declare one of the conflicting constraints subjective"},
				{Kind: SuggestStrengthenRule, Text: "restrict the object comparison rule: conflicting constraints indicate the objects are not truly equivalent"},
				{Kind: SuggestChangeDecision, Text: "change the decision functions of the involved properties"},
			},
		})
	}

	// Implicit conflicts: an objective constraint over a property with a
	// conflict-ignoring decision function is only guaranteed if the other
	// side entails it too.
	out.conflicts = append(out.conflicts, d.implicitConflicts(lCons, rCons, LocalSide, localClass, remoteClass, where)...)
	out.conflicts = append(out.conflicts, d.implicitConflicts(rCons, lCons, RemoteSide, remoteClass, localClass, where)...)
	return out
}

// restriction pairs a restriction with its constraint of origin.
type restrWithKey struct {
	r   *logic.Restriction
	key ConKey
}

// restrictions extracts derivable restrictions from the subjective,
// non-imperfect constraints.
func (d *Derivation) restrictions(cons []CCon) []restrWithKey {
	var out []restrWithKey
	for _, con := range cons {
		if con.Status != Subjective || con.Imperfect {
			continue
		}
		for _, n := range logic.Normalize(con.Expr) {
			if r, ok := logic.ExtractRestriction(n); ok {
				out = append(out, restrWithKey{r: r, key: con.Key})
			}
		}
	}
	return out
}

// combine merges a local and a remote restriction on the same conformed
// path through the property's decision function, enforcing the paper's
// conditions (1) and (2).
func (d *Derivation) combine(lr, rr restrWithKey, classes []string) (GlobalConstraint, bool) {
	path := lr.r.Path
	pe := d.propEqByPath(path)
	if pe == nil {
		return GlobalConstraint{}, false
	}
	df := pe.DF
	// Condition (1): conflict-avoiding functions propagate nothing (the
	// subjective side plays no role in the global value). Conflict-
	// ignoring functions leave both sides objective, so their presence
	// among *subjective* restrictions means the constraint was declared
	// subjective by design — nothing to derive either.
	if df.Kind() == ConflictAvoiding || df.Kind() == ConflictIgnoring {
		return GlobalConstraint{}, false
	}
	// Guards must range over objective properties only; otherwise the
	// guard's own global value is not determined by either side.
	guard, ok := d.combineGuards(lr.r.Guard, rr.r.Guard)
	if !ok {
		return GlobalConstraint{}, false
	}

	var body expr.Node
	switch {
	case lr.r.IsSet() && rr.r.IsSet():
		set, ok := combineSets(df, *lr.r.Set, *rr.r.Set)
		if !ok {
			return GlobalConstraint{}, false
		}
		res := logic.Restriction{Path: path, Set: &set}
		body = res.ToExpr()
	case !lr.r.IsSet() && !rr.r.IsSet():
		res, ok := combineBounds(df, lr.r, rr.r)
		if !ok {
			return GlobalConstraint{}, false
		}
		body = res.ToExpr()
	default:
		return GlobalConstraint{}, false
	}
	if guard != nil {
		body = expr.Binary{Op: expr.OpImplies, L: guard, R: body}
	}
	return GlobalConstraint{
		Classes: classes, Scope: ScopeMerged,
		Kind: schema.ObjectConstraint, Expr: body,
		Origin:     []ConKey{lr.key, rr.key},
		Derivation: "derived(" + df.Name() + ")",
	}, true
}

// propEqByPath resolves the property equivalence for a conformed path.
func (d *Derivation) propEqByPath(path string) *PropEq {
	name := path
	if i := strings.LastIndex(path, "."); i >= 0 {
		name = path[i+1:]
	}
	for _, pe := range d.View.Conformed.Spec.PropEqs {
		if pe.Conformed == name {
			return pe
		}
	}
	return nil
}

// combineGuards conjoins guards, verifying they involve objective
// properties only.
func (d *Derivation) combineGuards(a, b expr.Node) (expr.Node, bool) {
	check := func(g expr.Node) bool {
		if g == nil {
			return true
		}
		for attr := range expr.AttrsUsed(g) {
			root := attr
			if i := strings.Index(root, "."); i >= 0 {
				root = root[:i]
			}
			if pe := d.propEqByPath(attr); pe != nil && (pe.LocalSubjective || pe.RemoteSubjective) {
				return false
			}
			if pe := d.propEqByPath(root); pe != nil && (pe.LocalSubjective || pe.RemoteSubjective) {
				return false
			}
		}
		return true
	}
	if !check(a) || !check(b) {
		return nil, false
	}
	switch {
	case a == nil:
		return b, true
	case b == nil:
		return a, true
	case expr.Equal(a, b):
		return a, true
	default:
		return expr.Binary{Op: expr.OpAnd, L: a, R: b}, true
	}
}

// combineSets applies the decision function pairwise over two finite
// domains: trav_reimb ∈ {10,20} × {14,24} under avg → {12,17,22}.
func combineSets(df DecisionFunc, a, b object.Set) (object.Set, bool) {
	var elems []object.Value
	for _, x := range a.Elems() {
		for _, y := range b.Elems() {
			v, ok := df.CombineVals(x, y)
			if !ok {
				return object.Set{}, false
			}
			elems = append(elems, v)
		}
	}
	return object.NewSet(elems...), true
}

// combineBounds lifts the decision function over interval restrictions.
func combineBounds(df DecisionFunc, a, b *logic.Restriction) (*logic.Restriction, bool) {
	dir := func(op expr.Op) (lower, upper, eq bool) {
		switch op {
		case expr.OpGe, expr.OpGt:
			return true, false, false
		case expr.OpLe, expr.OpLt:
			return false, true, false
		case expr.OpEq:
			return false, false, true
		default:
			return false, false, false
		}
	}
	al, au, ae := dir(a.Op)
	bl, bu, be := dir(b.Op)
	av, aok := object.AsFloat(a.Val)
	bv, bok := object.AsFloat(b.Val)

	switch {
	case ae && be:
		v, ok := df.CombineVals(a.Val, b.Val)
		if !ok {
			return nil, false
		}
		return &logic.Restriction{Path: a.Path, Op: expr.OpEq, Val: v}, true
	case (al || ae) && (bl || be):
		if !aok || !bok {
			return nil, false
		}
		lo, ok := df.CombineLower(av, bv)
		if !ok {
			return nil, false
		}
		op := expr.OpGe
		if a.Op == expr.OpGt && b.Op == expr.OpGt {
			op = expr.OpGt
		}
		return &logic.Restriction{Path: a.Path, Op: op, Val: numVal(lo, a.Val, b.Val)}, true
	case (au || ae) && (bu || be):
		if !aok || !bok {
			return nil, false
		}
		hi, ok := df.CombineUpper(av, bv)
		if !ok {
			return nil, false
		}
		op := expr.OpLe
		if a.Op == expr.OpLt && b.Op == expr.OpLt {
			op = expr.OpLt
		}
		return &logic.Restriction{Path: a.Path, Op: op, Val: numVal(hi, a.Val, b.Val)}, true
	default:
		return nil, false
	}
}

func numVal(f float64, a, b object.Value) object.Value {
	if a.Kind() == object.KindInt && b.Kind() == object.KindInt && f == float64(int64(f)) {
		return object.Int(int64(f))
	}
	return object.Real(f)
}

// implicitConflicts detects §5.2.1's implicit conflicts: objective
// constraints over conflict-ignoring properties whose counterpart side
// offers no guarantee. It returns the conflicts rather than appending,
// so pair workers can run concurrently.
func (d *Derivation) implicitConflicts(cons, otherCons []CCon, side Side, class, otherClass, where string) []Conflict {
	var out []Conflict
	other := exprsOf(otherCons)
	for _, con := range cons {
		if con.Status != Objective || con.Imperfect {
			continue
		}
		var ignoring []string
		for attr := range pathsUsed(con.Expr) {
			if pe := d.propEqByPath(attr); pe != nil && pe.DF.Kind() == ConflictIgnoring {
				ignoring = append(ignoring, attr)
			}
		}
		if len(ignoring) == 0 {
			continue
		}
		sort.Strings(ignoring)
		if d.Checker.Entails(other, con.Expr) == logic.Yes {
			continue // the other side guarantees it
		}
		out = append(out, Conflict{
			Kind:  ConflictImplicit,
			Where: where,
			Detail: fmt.Sprintf("objective constraint %s on %s uses conflict-ignoring properties %v; %s does not guarantee it, so a merged object may violate it",
				con.Key, class, ignoring, otherClass),
			Involved: []ConKey{con.Key},
			Suggestions: []Suggestion{
				{Kind: SuggestChangeDecision, Text: fmt.Sprintf("change the decision function on %v from any to trust(%s)", ignoring, d.View.Conformed.Spec.DB(side).Schema.Name)},
				{Kind: SuggestMarkSubjective, Text: fmt.Sprintf("declare %s subjective", con.Key)},
			},
		})
	}
	return out
}

// classConstraints implements §5.2.2: class constraints are subjective by
// default; classes with objective extension keep theirs; key constraints
// propagate under the key-to-key rule condition.
func (d *Derivation) classConstraints() {
	c := d.View.Conformed
	for _, side := range []Side{LocalSide, RemoteSide} {
		db := c.Spec.DB(side).Schema
		for _, cls := range db.Classes() {
			ccs := c.ConsOn(side, cls.Name, schema.ClassConstraint)
			if len(ccs) == 0 {
				continue
			}
			gname := d.View.GlobalName(side, cls.Name)
			objExt := d.objectiveExtension(side, cls.Name)
			for _, con := range ccs {
				if con.Imperfect {
					continue
				}
				switch {
				case objExt:
					d.addGlobal(GlobalConstraint{
						Classes: []string{gname}, Scope: ScopeAll,
						Kind: schema.ClassConstraint, Expr: con.Expr,
						Origin: []ConKey{con.Key}, Derivation: "objective-extension",
					})
				case isKeyCon(con) && d.keyPropagates(side, cls.Name, con):
					d.addGlobal(GlobalConstraint{
						Classes: []string{gname}, Scope: ScopeAll,
						Kind: schema.ClassConstraint, Expr: con.Expr,
						Origin: []ConKey{con.Key}, Derivation: "key-propagation",
					})
				default:
					d.Notes = append(d.Notes, fmt.Sprintf(
						"class constraint %s not propagated (class constraints are subjective by default, §5.2.2)", con.Key))
				}
			}
		}
	}
}

func isKeyCon(con CCon) bool {
	_, ok := con.Expr.(expr.Key)
	return ok
}

// objectiveExtension reports whether a class's global extension equals
// its local extension: no equality rule relates the class and no
// similarity rule targets it (§5.2.2).
func (d *Derivation) objectiveExtension(side Side, class string) bool {
	c := d.View.Conformed
	db := c.Spec.DB(side).Schema
	related := func(ruleClass string) bool {
		return db.IsA(class, ruleClass) || db.IsA(ruleClass, class)
	}
	for _, r := range c.Spec.EqRules {
		if side == LocalSide && related(r.LocalClass) {
			return false
		}
		if side == RemoteSide && related(r.RemoteClass) {
			return false
		}
	}
	for _, r := range c.ImpliedEq {
		if side == LocalSide && related(r.LocalClass) {
			return false
		}
		if side == RemoteSide && related(r.RemoteClass) {
			return false
		}
	}
	for _, r := range c.Spec.SimRules {
		if r.SrcSide.Other() == side && related(r.Target) {
			return false
		}
	}
	for _, dr := range c.Spec.DescRules {
		if dr.ValueSide.Other() == side && related(dr.ObjectClass) {
			return false
		}
	}
	return true
}

// keyPropagates implements the paper's key-constraint exception: every
// equality rule on the class is key-to-key, and similarity rules only
// import objects from classes that have equality rules themselves.
func (d *Derivation) keyPropagates(side Side, class string, con CCon) bool {
	c := d.View.Conformed
	key, ok := con.Expr.(expr.Key)
	if !ok || len(key.Attrs) != 1 {
		return false
	}
	db := c.Spec.DB(side).Schema
	related := func(ruleClass string) bool {
		return db.IsA(class, ruleClass) || db.IsA(ruleClass, class)
	}
	otherDB := c.Spec.DB(side.Other()).Schema

	classHasEq := false
	for _, r := range c.Spec.EqRules {
		ruleClass, otherClass := r.LocalClass, r.RemoteClass
		myVar, otherVar := r.LocalVar, r.RemoteVar
		if side == RemoteSide {
			ruleClass, otherClass = r.RemoteClass, r.LocalClass
			myVar, otherVar = r.RemoteVar, r.LocalVar
		}
		if !related(ruleClass) {
			continue
		}
		classHasEq = true
		// The rule's whole condition must be a single equality between
		// this class's key and a key of the other class, both read in
		// conformed terms, as the key constraints are.
		if len(r.Conds) != 1 {
			return false
		}
		a, b, ok := equiJoinAttrs(r.Conds, myVar, otherVar)
		if !ok || a != key.Attrs[0] {
			return false
		}
		if !isKeyOf(c, side.Other(), otherDB, otherClass, b) {
			return false
		}
	}
	if !classHasEq {
		return false
	}
	// Similarity rules importing into this class must come from classes
	// that have (key-to-key) equality rules as well.
	for _, r := range c.Spec.SimRules {
		if r.SrcSide.Other() != side || !related(r.Target) {
			continue
		}
		srcHasEq := false
		srcDB := c.Spec.DB(r.SrcSide).Schema
		for _, er := range c.Spec.EqRules {
			ruleClass := er.RemoteClass
			if r.SrcSide == LocalSide {
				ruleClass = er.LocalClass
			}
			if srcDB.IsA(r.SrcClass, ruleClass) || srcDB.IsA(ruleClass, r.SrcClass) {
				srcHasEq = true
				break
			}
		}
		if !srcHasEq {
			return false
		}
	}
	return true
}

// isKeyOf reports whether attr is declared a key of the class (via a key
// class constraint on its chain).
func isKeyOf(c *Conformed, side Side, db *schema.Database, class, attr string) bool {
	for _, con := range c.ConsOn(side, class, schema.ClassConstraint) {
		if k, ok := con.Expr.(expr.Key); ok && len(k.Attrs) == 1 && k.Attrs[0] == attr {
			return true
		}
	}
	// Key constraints may live on superclasses (Item.cc1 covers
	// Proceedings).
	for _, super := range db.Supers(class) {
		for _, con := range c.ConsOn(side, super, schema.ClassConstraint) {
			if k, ok := con.Expr.(expr.Key); ok && len(k.Attrs) == 1 && k.Attrs[0] == attr {
				return true
			}
		}
	}
	return false
}

// databaseConstraints implements §5.2.3: database constraints are
// regarded as subjective and are not propagated.
func (d *Derivation) databaseConstraints() {
	for _, con := range d.View.Conformed.Cons {
		if con.Kind == schema.DatabaseConstraint {
			d.Notes = append(d.Notes, fmt.Sprintf(
				"database constraint %s not propagated (database constraints are subjective, §5.2.3)", con.Key))
		}
	}
}

// approxSimilarity implements §5.2.1 for approximate similarity: the
// virtual common superclass carries the disjunction Ω ∨ Ω', and the
// horizontal-fragmentation pattern (Ω ⊨ φ') is reported. Runs after
// simRules (it consumes DerivedOnSim); rules fan out across the pool
// and merge in declaration order.
func (d *Derivation) approxSimilarity() {
	c := d.View.Conformed
	type approxOut struct {
		globals []GlobalConstraint
		notes   []string
	}
	rules := c.Spec.SimRules
	outs := make([]approxOut, len(rules))
	parallelFor(len(rules), d.opts.workers(), func(i int) {
		r := rules[i]
		if !r.Approximate() {
			return
		}
		targetSide := r.SrcSide.Other()
		tgt := exprsOf(c.ConsOn(targetSide, r.Target, schema.ObjectConstraint))
		src := d.DerivedOnSim[r.Raw.Name]
		if len(tgt) == 0 || len(src) == 0 {
			return
		}
		disj := expr.Binary{Op: expr.OpOr, L: conjoin(tgt), R: conjoin(src)}
		outs[i].globals = append(outs[i].globals, GlobalConstraint{
			Classes: []string{r.Virtual}, Scope: ScopeAll,
			Kind: schema.ObjectConstraint, Expr: disj,
			Derivation: "disjunction(approx-sim)",
		})
		for _, phi := range src {
			if d.Checker.Entails(tgt, phi) == logic.Yes {
				outs[i].notes = append(outs[i].notes, fmt.Sprintf(
					"approx rule %s: %s ⊨ %s — %s and %s are horizontal fragments of %s with membership condition %s",
					r.Raw.Name, r.Target, phi, r.Target, r.SrcClass, r.Virtual, phi))
			}
		}
	})
	for _, o := range outs {
		for _, gc := range o.globals {
			d.addGlobal(gc)
		}
		d.Notes = append(d.Notes, o.notes...)
	}
}

func conjoin(ns []expr.Node) expr.Node {
	if len(ns) == 0 {
		return expr.Lit{Val: object.Bool(true)}
	}
	out := ns[0]
	for _, n := range ns[1:] {
		out = expr.Binary{Op: expr.OpAnd, L: out, R: n}
	}
	return out
}

// addGlobal appends a global constraint, deduplicating identical entries
// (the same objective constraint can surface through several rules).
func (d *Derivation) addGlobal(gc GlobalConstraint) {
	for _, have := range d.Global {
		if have.Derivation == gc.Derivation && have.Scope == gc.Scope &&
			expr.Equal(have.Expr, gc.Expr) && sameClasses(have.Classes, gc.Classes) {
			return
		}
	}
	d.Global = append(d.Global, gc)
}

func sameClasses(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GlobalFor returns the global constraints applicable to a global class,
// filtered by scope.
func (d *Derivation) GlobalFor(class string, scopes ...Scope) []GlobalConstraint {
	want := map[Scope]bool{}
	for _, s := range scopes {
		want[s] = true
	}
	var out []GlobalConstraint
	for _, gc := range d.Global {
		if len(scopes) > 0 && !want[gc.Scope] {
			continue
		}
		for _, cl := range gc.Classes {
			if cl == class {
				out = append(out, gc)
				break
			}
		}
	}
	return out
}
