package view

import (
	"fmt"
	"slices"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// The index-inheritance differential: a republished class state derives
// its eq and ordered indexes from the last fresh builds (inherit.go), and
// every derived index must answer exactly as a fresh build over the same
// frozen extent.

// inheritClasses are the classes the differential probes: Item, its
// subclass Proceedings, and the two Sim-derived classes a ref? flip moves
// a Proceedings between.
var inheritClasses = []string{"Item", "Proceedings", "RefereedPubl", "NonRefereedPubl"}

// probeValues returns the constants the differential probes an attribute
// with: every keyPool value for it (nulls, Int/Real/string mixes), a
// value of a kind class no member holds, and the values three members of
// the extent hold.
func probeValues(attr string, ext []*core.GObj) []object.Value {
	out := []object.Value{object.Tuple{}}
	for _, a := range keyPool {
		if a.attr == attr {
			out = append(out, a.val)
		}
	}
	for _, p := range []int{0, len(ext) / 2, len(ext) - 1} {
		if p >= 0 && p < len(ext) {
			if v, ok := ext[p].Get(attr); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// probeBattery builds the served prefixes the differential resolves on
// one attribute: equality and membership, each range comparison, and
// pairs of range conjuncts on the attribute — both sides, and one side
// twice, over one constant or two neighbouring ones — which the resolver
// merges into one probe.
func probeBattery(attr string, vals []object.Value) [][]expr.Node {
	cmp := func(op expr.Op, v object.Value) expr.Node {
		return expr.Binary{Op: op, L: expr.Ident{Name: attr}, R: expr.Lit{Val: v}}
	}
	ranges := []expr.Op{expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	pairs := [][2]expr.Op{{expr.OpGe, expr.OpLe}, {expr.OpGt, expr.OpLt}, {expr.OpGe, expr.OpGt}, {expr.OpLe, expr.OpLt}}
	var out [][]expr.Node
	for i, v := range vals {
		out = append(out,
			[]expr.Node{cmp(expr.OpEq, v)},
			[]expr.Node{inSet(attr, v, vals[(i+1)%len(vals)], object.Null{})})
		for _, op := range ranges {
			out = append(out, []expr.Node{cmp(op, v)})
		}
		for _, w := range []object.Value{v, vals[(i+1)%len(vals)]} {
			for _, p := range pairs {
				out = append(out, []expr.Node{cmp(p[0], v), cmp(p[1], w)}, []expr.Node{cmp(p[0], w), cmp(p[1], v)})
			}
		}
		out = append(out, []expr.Node{cmp(expr.OpEq, v), cmp(expr.OpGe, vals[(i+1)%len(vals)])})
	}
	return out
}

// checkInherited resolves the probe battery against every probed class
// state of the published snapshot that checked does not hold yet —
// deriving or building its indexes, as a read would — and against a
// bare state over the same extent, whose indexes are fresh builds. Both
// must serve the same prefix, decline the same conjuncts, count every
// probe alike and yield the same candidate positions.
func checkInherited(t *testing.T, what string, e *Engine, checked map[*classState]bool) {
	t.Helper()
	s := e.snap.Load()
	for _, class := range inheritClasses {
		cs, ok := s.classes[class]
		if !ok || checked[cs] {
			continue
		}
		checked[cs] = true
		fresh := &classState{name: class, ext: cs.ext}
		for _, a := range []string{"isbn", "shopprice", "libprice", "rating", "ref?", "title"} {
			for _, conjs := range probeBattery(a, probeValues(a, cs.ext)) {
				got, gotServed := e.servedPrefix(s, cs, conjs)
				want, wantServed := e.servedPrefix(s, fresh, conjs)
				where := fmt.Sprintf("%s: %s where %v", what, class, conjoinNodes(conjs))
				if gotServed != wantServed || len(got) != len(want) {
					t.Fatalf("%s: inherited index serves %d conjuncts in %d probes, a fresh build %d in %d",
						where, gotServed, len(got), wantServed, len(want))
				}
				for i := range got {
					if got[i].n != want[i].n {
						t.Fatalf("%s: probe %d counts %d on the inherited index, %d on a fresh build", where, i, got[i].n, want[i].n)
					}
				}
				if gotServed > 0 {
					if g, w := candidatePositions(got, cs.ext), candidatePositions(want, cs.ext); !slices.Equal(g, w) {
						t.Fatalf("%s: inherited index yields positions %v, a fresh build %v", where, g, w)
					}
				}
			}
		}
	}
}

// FuzzInheritedIndex is the index-inheritance differential. The script
// is a sequence of 4-byte steps — a control byte and three op bytes:
// single writes and two-op batches of inserts, in-place updates, deletes,
// ref? flips across RefereedPubl / NonRefereedPubl, nulls, Int/Real/
// string mixes and a value of a foreign kind class (keyPool), applied
// through Ship's own apply path. The control byte decides whether the
// version is read: a read derives (or builds) the probed indexes, so
// overlays fold into fresh builds at varying depths, and an unread
// version passes its bases on. After every read each class state not
// yet checked must match buildEq / buildOrd over the same frozen extent
// on every probe's count, on declines and on positions
// (checkInherited); some reads also run the mutation battery against
// the reference scan.
func FuzzInheritedIndex(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 4, 0, 1, 5, 1, 0, 2, 3, 6},
		{0, 1, 3, 13, 3, 1, 5, 14, 0, 2, 7, 0, 2, 0, 2, 5, 0, 1, 2, 9},
		{1, 0, 1, 2, 2, 1, 9, 5, 1, 2, 3, 0, 0, 0, 0, 8, 2, 1, 4, 1, 0, 1, 1, 8},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		e := scaledEngine(t, 3)
		w := &fuzzWriter{t: t, e: e, next: 1}
		checked := map[*classState]bool{}
		checkInherited(t, "initial", e, checked)
		for i := 0; i+4 <= len(script); i += 4 {
			ctl, b := script[i], script[i+1:i+4]
			what := fmt.Sprintf("step %d", i/4)
			op, ok := w.op(b[0], b[1], b[2])
			if !ok {
				continue
			}
			ops := []shippedOp{op}
			if ctl%4 == 1 { // a two-op batch on two different objects
				if second, ok := w.op(b[0]+1, b[2], b[1]); ok && second.op.ID != op.op.ID {
					ops = append(ops, second)
				}
			}
			w.apply(what, ops)
			if ctl%3 == 2 {
				continue // unread: the next version inherits the bases
			}
			checkInherited(t, what, e, checked)
			if ctl%5 == 0 {
				for _, q := range mutationQueries {
					runVsReference(t, e, q)
				}
			}
		}
	})
}
