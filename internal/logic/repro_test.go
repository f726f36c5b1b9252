package logic

import (
	"fmt"
	"math/rand"
	"testing"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// TestIntegerVarCmpCompleteness pins counterexamples that once made the
// theory core claim satisfiability where brute force proves unsat:
// interval transfer over attribute comparisons ran on un-snapped real
// intervals (first case), and disequalities against a pinned side never
// excluded the value (remaining cases). Found by seed sweeps of the
// model-checking property.
func TestIntegerVarCmpCompleteness(t *testing.T) {
	types := map[string]object.Type{"x": object.RangeType{Lo: 0, Hi: 7}, "y": object.RangeType{Lo: 0, Hi: 7}}
	c := &Checker{Types: types}
	cases := []struct {
		srcs []string
		want Verdict
	}{
		// x ≥ 5 and y ≤ 5 over integers force x = y = 5, refuting x < y.
		{[]string{"x > 4", "x < y", "y < 6"}, No},
		// x ∈ {0,1}, x ≥ y, y ≠ 0 pin y = 1, so x = 1 = y refutes x ≠ y.
		{[]string{"x in {0,1}", "y != 0", "x != y", "x >= y"}, No},
		// y = 1, x ≤ y, x ≠ y force x = 0, refuting x ≠ 0.
		{[]string{"x != y", "y = 1", "x <= y", "x != 0"}, No},
		// One step looser must stay satisfiable (x=4, y=5).
		{[]string{"x > 3", "x < y", "y < 6"}, Yes},
	}
	for _, tc := range cases {
		var nodes []expr.Node
		for _, s := range tc.srcs {
			nodes = append(nodes, expr.MustParse(s))
		}
		if got := c.Satisfiable(nodes...); got != tc.want {
			t.Errorf("%v: got %v, want %v", tc.srcs, got, tc.want)
		}
	}
}

// TestModelCheckingSoak is a heavier randomized completeness soak of the
// theory core against brute-force model enumeration (fixed seeds so CI is
// deterministic; TestQuickModelChecking covers fresh seeds per run).
func TestModelCheckingSoak(t *testing.T) {
	types := map[string]object.Type{"x": object.RangeType{Lo: 0, Hi: 7}, "y": object.RangeType{Lo: 0, Hi: 7}}
	c := &Checker{Types: types}
	ops := []string{">=", "<=", "=", "!=", "<", ">"}
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		var nodes []expr.Node
		n := r.Intn(5) + 1
		for i := 0; i < n; i++ {
			v := "x"
			if r.Intn(2) == 0 {
				v = "y"
			}
			switch r.Intn(4) {
			case 0:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("%s %s %d", v, ops[r.Intn(len(ops))], r.Intn(8))))
			case 1:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("x %s y", ops[r.Intn(len(ops))])))
			case 2:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("%s in {%d,%d}", v, r.Intn(8), r.Intn(8))))
			default:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("%s not in {%d,%d}", v, r.Intn(8), r.Intn(8))))
			}
		}
		got := c.Satisfiable(nodes...)
		bruteSat := false
		for x := int64(0); x <= 7 && !bruteSat; x++ {
			for y := int64(0); y <= 7; y++ {
				env := &expr.Env{Self: expr.MapObject{
					"x": object.Int(x), "y": object.Int(y),
				}}
				all := true
				for _, nd := range nodes {
					ok, err := env.EvalBool(nd)
					if err != nil || !ok {
						all = false
						break
					}
				}
				if all {
					bruteSat = true
					break
				}
			}
		}
		want := No
		if bruteSat {
			want = Yes
		}
		if got != want {
			t.Errorf("seed %d: solver=%v brute=%v for %v", seed, got, want, nodes)
			if seed > 100 && t.Failed() {
				return
			}
		}
	}
}
