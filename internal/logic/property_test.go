package logic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// TestQuickIntervalEntailment: x>=a ⊨ x>=b iff a>=b (over reals).
func TestQuickIntervalEntailment(t *testing.T) {
	c := &Checker{Types: map[string]object.Type{"x": object.TReal}}
	f := func(a, b int16) bool {
		prem := expr.MustParse(fmt.Sprintf("x >= %d", a))
		conc := expr.MustParse(fmt.Sprintf("x >= %d", b))
		got := c.Entails([]expr.Node{prem}, conc)
		want := No
		if int64(a) >= int64(b) {
			want = Yes
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickMembershipSat: two membership constraints are jointly
// satisfiable iff the sets intersect.
func TestQuickMembershipSat(t *testing.T) {
	c := &Checker{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() (expr.Node, map[int64]bool) {
			n := r.Intn(4) + 1
			vals := map[int64]bool{}
			s := "x in {"
			for i := 0; i < n; i++ {
				v := int64(r.Intn(10))
				if vals[v] {
					continue
				}
				if len(vals) > 0 {
					s += ","
				}
				s += fmt.Sprint(v)
				vals[v] = true
			}
			return expr.MustParse(s + "}"), vals
		}
		n1, s1 := mk()
		n2, s2 := mk()
		intersects := false
		for v := range s1 {
			if s2[v] {
				intersects = true
			}
		}
		got := c.Satisfiable(n1, n2)
		if intersects {
			return got == Yes
		}
		return got == No
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickNormalizePreservesMeaning: the conjunction of Normalize's
// parts is equivalent to the original formula.
func TestQuickNormalizePreservesMeaning(t *testing.T) {
	c := &Checker{Types: map[string]object.Type{
		"p": object.TInt, "q": object.TInt, "g": object.TBool,
	}}
	shapes := []string{
		"p >= %d and q <= %d",
		"g = true implies (p >= %d and q <= %d)",
		"p >= %d and (g = true implies q <= %d)",
		"g = true implies p >= %d and q <= %d and p <= 90",
	}
	f := func(a, b uint8, shape uint8) bool {
		src := fmt.Sprintf(shapes[int(shape)%len(shapes)], a%50, b%50+50)
		orig := expr.MustParse(src)
		parts := Normalize(orig)
		if len(parts) == 0 {
			return false
		}
		conj := parts[0]
		for _, p := range parts[1:] {
			conj = expr.Binary{Op: expr.OpAnd, L: conj, R: p}
		}
		return c.Equivalent(orig, conj) == Yes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEntailmentReflexiveAndMonotone: φ ⊨ φ, and adding premises
// never destroys entailment.
func TestQuickEntailmentReflexiveAndMonotone(t *testing.T) {
	c := &Checker{Types: map[string]object.Type{"p": object.TInt, "q": object.TInt}}
	f := func(a, b uint8) bool {
		phi := expr.MustParse(fmt.Sprintf("p >= %d", a))
		extra := expr.MustParse(fmt.Sprintf("q <= %d", b))
		if c.Entails([]expr.Node{phi}, phi) != Yes {
			return false
		}
		return c.Entails([]expr.Node{phi, extra}, phi) == Yes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickModelChecking: when the solver says a literal conjunction is
// satisfiable over small integer domains, brute-force enumeration agrees
// (and vice versa) — a completeness check on the theory core.
func TestQuickModelChecking(t *testing.T) {
	types := map[string]object.Type{"x": object.RangeType{Lo: 0, Hi: 7}, "y": object.RangeType{Lo: 0, Hi: 7}}
	c := &Checker{Types: types}
	ops := []string{">=", "<=", "=", "!=", "<", ">"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var nodes []expr.Node
		n := r.Intn(4) + 1
		for i := 0; i < n; i++ {
			v := "x"
			if r.Intn(2) == 0 {
				v = "y"
			}
			switch r.Intn(3) {
			case 0:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("%s %s %d", v, ops[r.Intn(len(ops))], r.Intn(8))))
			case 1:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("x %s y", ops[r.Intn(len(ops))])))
			default:
				nodes = append(nodes, expr.MustParse(fmt.Sprintf("%s in {%d,%d}", v, r.Intn(8), r.Intn(8))))
			}
		}
		got := c.Satisfiable(nodes...)
		// Brute force over the 64 integer models.
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
		if bruteSat {
			return got == Yes
		}
		return got == No
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// TestQuickConflictSymmetry: Conflicting(a,b) == Conflicting(b,a).
func TestQuickConflictSymmetry(t *testing.T) {
	c := &Checker{Types: map[string]object.Type{"x": object.TInt}}
	f := func(a, b uint8, opA, opB uint8) bool {
		ops := []string{">=", "<=", "=", "<", ">"}
		na := expr.MustParse(fmt.Sprintf("x %s %d", ops[int(opA)%len(ops)], a))
		nb := expr.MustParse(fmt.Sprintf("x %s %d", ops[int(opB)%len(ops)], b))
		return c.Conflicting(na, nb) == c.Conflicting(nb, na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
