package view

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"interopdb/internal/expr"
)

// Plan-cache persistence (DESIGN.md §13). Plans themselves cannot
// survive a restart — they hold resolved extent positions and columns
// bound to a live snapshot — but the plan *shapes* can: the
// (class, predicate, UseConstraints) keys the workload exercised. A
// checkpoint exports the shapes; warm start replans each one against
// the recovered snapshot, with the imported memo absorbing the solver
// work, so the first client query after a restart is already a
// plan-cache hit.

// PlanExport is one persisted plan shape. Checkpoints written before
// the plan key lost its index and gate flags also carry "idx" and
// "gate"; decoding ignores both, so those shapes still warm.
type PlanExport struct {
	Class string          `json:"class"`
	Pred  json.RawMessage `json:"pred"`
	Cons  bool            `json:"cons,omitempty"`
}

// ExportPlans serializes the current snapshot's cached plan shapes,
// deterministically ordered (class, then predicate fingerprint, then
// UseConstraints).
func (e *Engine) ExportPlans() ([]byte, error) {
	s := e.snap.Load()
	type keyed struct {
		exp    PlanExport
		hi, lo uint64
	}
	var all []keyed
	for class, cs := range s.classes { // any order: all is sorted below
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
				exp: PlanExport{Class: class, Pred: pb, Cons: key.cons},
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
		return !a.exp.Cons && b.exp.Cons
	})
	out := make([]PlanExport, len(all))
	for i, k := range all {
		out[i] = k.exp
	}
	return json.Marshal(out)
}

// WarmPlans replans every exported shape against the current snapshot,
// returning how many were warmed and how many skipped (unknown class:
// membership changed). Warming runs the ordinary planFor path, so its
// solver queries count in CacheStats; steady-state hit
// behaviour afterwards is what the warm-start equivalence test pins.
func (e *Engine) WarmPlans(ctx context.Context, data []byte) (warmed, skipped int, err error) {
	var exports []PlanExport
	if err := json.Unmarshal(data, &exports); err != nil {
		return 0, 0, fmt.Errorf("plan warm: decode: %w", err)
	}
	s := e.snap.Load()
	for i, ex := range exports {
		if !s.hasClass(ex.Class) {
			skipped++
			continue
		}
		cs := s.class(ex.Class)
		pred, derr := expr.DecodeNode(ex.Pred)
		if derr != nil {
			return warmed, skipped, fmt.Errorf("plan warm: shape %d: %w", i, derr)
		}
		if _, _, perr := e.planFor(ctx, s, cs, pred, ex.Cons); perr != nil {
			return warmed, skipped, fmt.Errorf("plan warm: shape %d (%s): %w", i, ex.Class, perr)
		}
		warmed++
	}
	return warmed, skipped, nil
}
