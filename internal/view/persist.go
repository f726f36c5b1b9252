package view

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"interopdb/internal/expr"
)

// Plan-cache persistence (DESIGN.md §13). Plans themselves cannot
// survive a restart — they hold resolved extent positions and compiled
// closures bound to a live snapshot — but the plan *shapes* can: the
// (class, predicate, flags) keys the workload exercised. A checkpoint
// exports the shapes; warm start replans each one against the recovered
// snapshot, with the imported memo absorbing the solver work, so the
// first client query after a restart is already a plan-cache hit.

// PlanExport is one persisted plan shape.
type PlanExport struct {
	Class string          `json:"class"`
	Pred  json.RawMessage `json:"pred"`
	Cons  bool            `json:"cons,omitempty"`
	Idx   bool            `json:"idx,omitempty"`
	Gate  bool            `json:"gate,omitempty"`
}

// ExportPlans serializes the current snapshot's cached plan shapes,
// deterministically ordered (class, then predicate fingerprint, then
// flags).
func (e *Engine) ExportPlans() ([]byte, error) {
	s, slot := e.pin()
	defer e.unpin(slot)
	type keyed struct {
		exp    PlanExport
		hi, lo uint64
	}
	var all []keyed
	for class := range s.slots { // any order: all is sorted below
		cs := s.class(class)
		var rangeErr error
		cs.plans.Range(func(k, v any) bool {
			key := k.(planKey)
			p := v.(*plan)
			pb, err := expr.EncodeNode(p.pred)
			if err != nil {
				rangeErr = fmt.Errorf("plan export: %s: %w", class, err)
				return false
			}
			all = append(all, keyed{
				exp: PlanExport{Class: class, Pred: pb, Cons: key.cons, Idx: key.idx, Gate: key.gate},
				hi:  key.hi, lo: key.lo,
			})
			return true
		})
		if rangeErr != nil {
			return nil, rangeErr
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.exp.Class != b.exp.Class {
			return a.exp.Class < b.exp.Class
		}
		if a.hi != b.hi {
			return a.hi < b.hi
		}
		if a.lo != b.lo {
			return a.lo < b.lo
		}
		if a.exp.Cons != b.exp.Cons {
			return b.exp.Cons
		}
		if a.exp.Idx != b.exp.Idx {
			return b.exp.Idx
		}
		return b.exp.Gate
	})
	out := make([]PlanExport, len(all))
	for i, k := range all {
		out[i] = k.exp
	}
	return json.Marshal(out)
}

// WarmPlans replans every exported shape against the current snapshot,
// returning how many were warmed and how many skipped (unknown class —
// membership changed — or a CostGate setting different from the
// engine's, which would build plans no lookup can ever hit). Warming
// runs the ordinary planFor path, so its solver queries and compiles
// count in CacheStats; steady-state hit behaviour afterwards is what
// the warm-start equivalence test pins.
func (e *Engine) WarmPlans(ctx context.Context, data []byte) (warmed, skipped int, err error) {
	var exports []PlanExport
	if err := json.Unmarshal(data, &exports); err != nil {
		return 0, 0, fmt.Errorf("plan warm: decode: %w", err)
	}
	s, slot := e.pin()
	defer e.unpin(slot)
	for i, ex := range exports {
		if ex.Gate != e.CostGate || !s.hasClass(ex.Class) {
			skipped++
			continue
		}
		cs := s.class(ex.Class)
		pred, derr := expr.DecodeNode(ex.Pred)
		if derr != nil {
			return warmed, skipped, fmt.Errorf("plan warm: shape %d: %w", i, derr)
		}
		if _, _, perr := e.planFor(ctx, s, cs, pred, ex.Cons, ex.Idx); perr != nil {
			return warmed, skipped, fmt.Errorf("plan warm: shape %d (%s): %w", i, ex.Class, perr)
		}
		warmed++
	}
	return warmed, skipped, nil
}
