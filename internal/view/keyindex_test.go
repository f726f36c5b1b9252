package view

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// The key-holder index suite: Validate's key check probes a key index
// kept beside the live view (mutate.go, keyIndex). These tests pin that
// a write's own key work costs what the write touches and that the
// index always equals a fresh count over the live extent.

// TestWriteWorkIndependentOfExtent is the view-side twin of the store's
// TestCommitWorkIndependentOfExtent: for a single-op insert, update and
// delete on Item, and for a batch that updates a member and then inserts
// the key it frees, it counts the key-index entries filed (Validate and
// Ship), the live members Validate's key check examined, the rows the
// indexed reads right after the write visited, the values those reads
// filed into eq and ordered indexes, and the entries the write put in
// the deref table. Both reads run once before the counted writes, so
// each index has a base to derive from. The counts must not depend on
// the extent: equal at ~1 000 and ~16 000 Items.
func TestWriteWorkIndependentOfExtent(t *testing.T) {
	work := func(scale int) []int64 {
		e, _, remote := scaledEngineStores(t, scale)
		pub := object.Ref{DB: remote.Name(), OID: remote.Extent("Publisher")[0].OID()}
		item := func(isbn string) []Mutation {
			return insertOf("Item", map[string]object.Value{
				"title": object.Str("written"), "isbn": object.Str(isbn), "publisher": pub,
				"shopprice": object.Real(5000.5), "libprice": object.Real(10),
			})
		}
		// Both reads answer only written rows, at any extent.
		reads := []Query{
			{Class: "Item", Where: expr.MustParse("isbn = 'w-1'")},
			{Class: "Item", Where: expr.MustParse("shopprice >= 5000 and shopprice < 5001")},
		}
		read := func() int64 {
			var visited int64
			for _, q := range reads {
				_, st, err := e.Run(q)
				if err != nil {
					t.Fatalf("%v: %v", q.Where, err)
				}
				visited += int64(st.CandidateRows + st.Scanned)
			}
			return visited
		}
		// Build the key index the check uses, and the eq and ordered
		// indexes the reads use.
		if rejs := rejectionsOf(t, e, item("warm")); len(rejs) != 0 {
			t.Fatalf("warm-up insert rejected: %v", rejs)
		}
		read()
		var counts []int64
		step := func(what string, ops []Mutation) {
			c := &e.counters
			filed, keyed, deref := c.keyFiled.Load(), c.keyVisited.Load(), c.derefFiled.Load()
			if rejs := rejectionsOf(t, e, ops); len(rejs) != 0 {
				t.Fatalf("%s rejected: %v", what, rejs)
			}
			keyed = c.keyVisited.Load() - keyed
			if err := ship(e, ops); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			deref = c.derefFiled.Load() - deref
			indexed := c.indexFiled.Load()
			visited := read()
			counts = append(counts, c.keyFiled.Load()-filed, keyed, visited, c.indexFiled.Load()-indexed, deref)
		}
		step("insert", item("w-1"))
		target := findByISBN(t, e, "w-1")
		step("update", updateOf("Item", target.ID, map[string]object.Value{
			"isbn": object.Str("w-2"), "shopprice": object.Real(5000.25),
		}))
		// The insert's key check runs after a staged update that frees
		// the very key it claims.
		step("update + insert", append(updateOf("Item", target.ID, map[string]object.Value{
			"isbn": object.Str("w-3"), "shopprice": object.Real(5000.75),
		}), item("w-2")...))
		step("delete", deleteOf("Item", target.ID))
		return counts
	}
	small, large := work(500), work(8000)
	t.Logf("key entries filed, key-check visits, read visits, index values filed, deref entries × insert/update/update+insert/delete: %v", small)
	if !slices.Equal(small, large) {
		t.Errorf("per-write work (key entries filed, key-check visits, read visits, index values filed, deref entries) × insert/update/update+insert/delete:\n%v at ~1 000 Items\n%v at ~16 000", small, large)
	}
}

// keyIndexFor returns (building on first use) the key index of a class
// and key attributes, as the key check of that pair reaches it.
func (e *Engine) keyIndexFor(class string, attrs []string) *keyIndex {
	return e.keyIndex(keyCheck{class: class, attrs: attrs, sig: keySig(class, attrs)})
}

// checkKeyIndexes compares every built key index with a fresh count of
// the live extent: each key's holders, as a set of view IDs.
func checkKeyIndexes(t *testing.T, what string, e *Engine) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := func(gs []*core.GObj) []int {
		out := make([]int, len(gs))
		for i, g := range gs {
			out[i] = g.ID
		}
		sort.Ints(out)
		return out
	}
	for _, ix := range e.keys {
		want := map[string][]*core.GObj{}
		for _, g := range e.res.View.Extent(ix.class) {
			if k, ok := expr.KeyString(g, ix.attrs); ok {
				want[k] = append(want[k], g)
			}
		}
		if len(want) != len(ix.holders) {
			t.Fatalf("%s: key index %s%v files %d keys, the live extent holds %d", what, ix.class, ix.attrs, len(ix.holders), len(want))
		}
		for k, gs := range want {
			if got := ids(ix.holders[k]); !slices.Equal(got, ids(gs)) {
				t.Fatalf("%s: key index %s%v files %q under %v, the live extent under %v", what, ix.class, ix.attrs, k, got, ids(gs))
			}
		}
	}
}

// keyPool holds the values a fuzzed write assigns: several kind classes
// per attribute, nulls, duplicates of fixture keys, and the two ref?
// values whose flip moves a Proceedings across the Sim-derived
// RefereedPubl / NonRefereedPubl extents.
var keyPool = []struct {
	attr string
	val  object.Value
}{
	{"isbn", object.Str("vldb96")}, {"isbn", object.Str("dup")}, {"isbn", object.Null{}}, {"isbn", object.Int(7)},
	{"shopprice", object.Real(10)}, {"shopprice", object.Int(10)}, {"shopprice", object.Real(10.5)},
	{"shopprice", object.Null{}}, {"shopprice", object.Str("ten")},
	{"libprice", object.Real(5)}, {"rating", object.Int(8)}, {"rating", object.Real(8)}, {"rating", object.Null{}},
	{"ref?", object.Bool(true)}, {"ref?", object.Bool(false)},
	{"title", object.Str("Proceedings of nothing")}, {"title", object.Str("plain")},
}

// fuzzWriter turns fuzz bytes into writes applied through applyShipped —
// Ship's own apply path, minus the member stores, so values the stores'
// type checks would refuse (a string price) still reach the view.
type fuzzWriter struct {
	t    *testing.T
	e    *Engine
	next object.OID
}

// op decodes one mutation from three bytes.
func (w *fuzzWriter) op(kind, target, val byte) (shippedOp, bool) {
	v := w.e.res.View
	a := keyPool[int(val)%len(keyPool)]
	switch kind % 3 {
	case 0:
		class := []string{"Item", "Proceedings"}[target%2]
		attrs := map[string]object.Value{"title": object.Str("fuzz"), "isbn": object.Str(fmt.Sprintf("f-%d", w.next))}
		if val%5 != 0 { // sometimes leave the attribute absent
			attrs[a.attr] = a.val
		}
		w.next++
		return shippedOp{op: Mutation{Kind: MutInsert, Class: class, Attrs: attrs}, oid: w.next, db: "fuzz"}, true
	case 1:
		if len(v.Objects) == 0 {
			return shippedOp{}, false
		}
		g := v.Objects[int(target)%len(v.Objects)]
		return shippedOp{op: Mutation{Kind: MutUpdate, ID: g.ID, Attrs: map[string]object.Value{a.attr: a.val}}, g: g}, true
	default:
		if len(v.Objects) == 0 {
			return shippedOp{}, false
		}
		g := v.Objects[int(target)%len(v.Objects)]
		return shippedOp{op: Mutation{Kind: MutDelete, ID: g.ID}, g: g}, true
	}
}

// apply ships ops through applyShipped, which publishes the batch
// before the write lock is released.
func (w *fuzzWriter) apply(what string, ops []shippedOp) {
	w.e.mu.Lock()
	err := w.e.applyShipped(ops)
	w.e.mu.Unlock()
	if err != nil {
		w.t.Fatalf("%s: applyShipped: %v", what, err)
	}
}

// FuzzKeyIndex is the key-holder index differential. The script is a
// sequence of 4-byte steps — a control byte and three op bytes: single
// writes and two-op batches of inserts, updates (nulls, mixed kinds,
// ref? flips) and deletes, each followed by a key check against a live
// member's key and optionally by reads. After every applied batch the
// key index must equal a fresh count over the live extent; the key
// check must equal the scan's (validateBoth); and every read must equal
// the reference scan.
func FuzzKeyIndex(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 4},
		{1, 1, 3, 13, 1, 1, 5, 14, 0, 2, 7, 0},
		{8, 0, 1, 2, 0, 1, 9, 5, 16, 2, 3, 0, 4, 0, 0, 8, 1, 4, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		e := scaledEngine(t, 3)
		e.keyIndexFor("Item", []string{"isbn"})
		e.keyIndexFor("Proceedings", []string{"isbn"})
		w := &fuzzWriter{t: t, e: e, next: 1}
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
			checkKeyIndexes(t, what, e)
			if ext := e.res.View.Extent("Item"); len(ext) > 0 {
				g := ext[int(b[1])%len(ext)]
				if isbn, ok := g.Get("isbn"); ok {
					validateBoth(t, e, what+": key check", insertOf("Item", map[string]object.Value{
						"title": object.Str("probe"), "isbn": isbn,
					}))
				}
			}
			if ctl%3 == 0 {
				for _, q := range mutationQueries {
					runVsReference(t, e, q)
				}
			}
		}
	})
}
