package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// The batch key-check suite: Validate files a batch's staged inserts
// and updates by key (mutate.go, stagedKeys), so an operation's key
// check probes them instead of re-deriving every earlier staged write's
// key. These tests pin that an operation's staged-key work does not
// grow with its position in the batch, and that the filed answer
// equals a from-scratch recomputation over the overlaid state.

// TestStagedKeyWorkIndependentOfBatch validates a batch of n inserts
// and a batch of n updates that each re-key a distinct member, at
// n = 50 and n = 400, and counts what the batch's last operation costs
// the key check: the key strings computed for staged writes
// (keyStaged) and the members examined (keyVisited), each the
// difference between the batch of n+1 operations and that of n. The
// counts must be equal at both sizes.
func TestStagedKeyWorkIndependentOfBatch(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 210)
	pub := object.Ref{DB: remote.Name(), OID: remote.Extent("Publisher")[0].OID()}
	items := e.res.View.Extent("Item")
	if len(items) < 401 {
		t.Fatalf("fixture drift: %d Items, the update batch needs 401", len(items))
	}
	inserts := func(n int) []Mutation {
		ops := make([]Mutation, n)
		for i := range ops {
			ops[i] = Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
				"title": object.Str("batch"), "isbn": object.Str(fmt.Sprintf("batch-%d", i)), "publisher": pub,
				"shopprice": object.Real(20), "libprice": object.Real(10),
			}}
		}
		return ops
	}
	updates := func(n int) []Mutation {
		ops := make([]Mutation, n)
		for i := range ops {
			ops[i] = Mutation{Kind: MutUpdate, Class: "Item", ID: items[i].ID, Attrs: map[string]object.Value{
				"isbn": object.Str(fmt.Sprintf("rekey-%d", i)),
			}}
		}
		return ops
	}
	count := func(what string, ops []Mutation) (staged, visited int64) {
		c := &e.counters
		staged, visited = c.keyStaged.Load(), c.keyVisited.Load()
		if rejs := rejectionsOf(t, e, ops); len(rejs) != 0 {
			t.Fatalf("%s rejected: %v", what, rejs)
		}
		return c.keyStaged.Load() - staged, c.keyVisited.Load() - visited
	}
	lastOp := func(what string, batch func(int) []Mutation, n int) [2]int64 {
		s0, v0 := count(what, batch(n))
		s1, v1 := count(what, batch(n+1))
		return [2]int64{s1 - s0, v1 - v0}
	}
	rejectionsOf(t, e, inserts(1)) // build the key index outside the counts
	for _, c := range []struct {
		what  string
		batch func(int) []Mutation
	}{{"inserts", inserts}, {"updates", updates}} {
		small, large := lastOp(c.what, c.batch, 50), lastOp(c.what, c.batch, 400)
		t.Logf("%s: last op's staged key strings, key-check visits: %v", c.what, small)
		if small != large {
			t.Errorf("%s: last op's staged key strings, key-check visits = %v in a batch of 51, %v in a batch of 401", c.what, small, large)
		}
	}
}

// oracleKeyHolder is the key check as Validate made it before staged
// writes were filed by key: the live half from the key index plus a
// pass over every staged update (the extent scan when more than one
// holder is left), then a pass over every staged insert. It recomputes
// every staged write's key on every call.
func oracleKeyHolder(s *txState, class string, attrs []string, obj expr.Object, exclude *core.GObj) (int, bool) {
	key, ok := expr.KeyString(obj, attrs)
	if !ok {
		return 0, false
	}
	e := s.e
	var hit *core.GObj
	holders := 0
	consider := func(g *core.GObj) {
		if g == exclude || s.deleted[g.ID] {
			return
		}
		if _, staged := s.post[g.ID]; staged {
			if k, ok := expr.KeyString(s.view(g), attrs); !ok || k != key {
				return
			}
		}
		hit = g
		holders++
	}
	for _, g := range e.keyIndexFor(class, attrs).holders[key] {
		consider(g)
	}
	for gid := range s.post {
		g, ok := e.res.View.ByID(gid)
		if !ok || !g.Classes[class] {
			continue
		}
		if k, ok := expr.KeyString(g, attrs); ok && k == key {
			continue // filed under the key: considered above
		}
		consider(g)
	}
	if holders > 1 {
		return s.scanHolder(class, attrs, key, exclude)
	}
	if hit != nil {
		return hit.ID, true
	}
	for _, staged := range s.inserts[class] {
		if k, ok := expr.KeyString(staged, attrs); ok && k == key {
			return 0, true
		}
	}
	return 0, false
}

// oracleKeyRejections recomputes the key rejections of a batch from
// scratch: it stages the batch as Validate does and, before each insert
// or update is staged, asks oracleKeyHolder about every key the
// operation must keep unique.
func oracleKeyRejections(e *Engine, ops []Mutation) []Rejection {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := newTxState(bg, e)
	var out []Rejection
	for _, op := range ops {
		switch op.Kind {
		case MutInsert:
			obj := expr.MapObject(op.Attrs)
			for _, kc := range e.consForClasses(e.insertChainClasses(op.Class)).keys {
				if id, dup := oracleKeyHolder(st, kc.class, kc.attrs, obj, nil); dup {
					out = append(out, Rejection{Constraint: kc.gc, Detail: fmt.Sprintf("duplicate key %v in %s", kc.attrs, kc.class), Repairs: keyRepairs(id)})
				}
			}
			staged := expr.MapObject(copyAttrs(op.Attrs))
			for _, cls := range e.insertChainClasses(op.Class) {
				st.inserts[cls] = append(st.inserts[cls], staged)
			}
		case MutUpdate:
			g, _ := e.res.View.ByID(op.ID)
			set := copyAttrs(st.post[g.ID])
			for k, v := range op.Attrs {
				set[k] = v
			}
			post := overlayObj{base: g, set: set}
			for _, kc := range e.consForClasses(classNames(g)).keys {
				if !keyTouched(kc.attrs, op.Attrs) {
					continue
				}
				if id, dup := oracleKeyHolder(st, kc.class, kc.attrs, post, g); dup {
					out = append(out, Rejection{Constraint: kc.gc, Detail: fmt.Sprintf("duplicate key %v on g%d in %s", kc.attrs, g.ID, kc.class), Repairs: keyRepairs(id)})
				}
			}
			st.post[g.ID] = set
		case MutDelete:
			st.deleted[op.ID] = true
		}
	}
	return out
}

// keyRejectionsOf keeps the key-constraint rejections, in order.
func keyRejectionsOf(rejs []Rejection) []Rejection {
	var out []Rejection
	for _, r := range rejs {
		if _, isKey := r.Constraint.Expr.(expr.Key); isKey {
			out = append(out, r)
		}
	}
	return out
}

// TestBatchKeyDifferentialRandomized validates random batches of 8–64
// operations: inserts into Item and Proceedings claiming fresh, live,
// staged and just-freed keys (and null ones), updates that re-key a
// member — twice, onto a live key, onto a key a staged insert claims —
// and deletes that free keys. Each batch's rejections, details, repairs
// and ValidateStats must agree between the indexed and the scan key
// check (validateBoth), and its key rejections must equal
// oracleKeyRejections'. A clean batch ships, so the live extent and
// the key index move under the next batches.
func TestBatchKeyDifferentialRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e, _, remote := scaledEngineStores(t, 5)
			rng := rand.New(rand.NewSource(seed))
			pubs := remote.Extent("Publisher")
			fresh := 0
			rejected, shipped := 0, 0
			for round := 0; round < 40; round++ {
				items := e.res.View.Extent("Item")
				live := map[int]bool{} // members neither deleted by the batch nor unknown
				for _, g := range items {
					live[g.ID] = true
				}
				var claimed, freed []object.Value // keys staged inserts claimed; keys the batch freed
				liveKey := func() object.Value {
					v, _ := items[rng.Intn(len(items))].Get("isbn")
					return v
				}
				hot := round%3 != 0 // a cold round claims fresh keys but for the odd freed one, so some batches pass
				key := func() object.Value {
					r := rng.Intn(10)
					if !hot && r >= 3 && r < 8 {
						r = 0
					}
					switch {
					case r < 3:
						fresh++
						return object.Str(fmt.Sprintf("fresh-%d-%d", seed, fresh))
					case r < 5:
						return liveKey()
					case r < 7 && len(claimed) > 0:
						return claimed[rng.Intn(len(claimed))]
					case r < 9 && len(freed) > 0:
						return freed[rng.Intn(len(freed))]
					case r == 9:
						return object.Null{}
					default:
						return liveKey()
					}
				}
				target := func() *core.GObj {
					for tries := 0; tries < 10; tries++ {
						if g := items[rng.Intn(len(items))]; live[g.ID] {
							return g
						}
					}
					return nil
				}
				var ops []Mutation
				var rekeyed []*core.GObj
				for n := 8 + rng.Intn(57); len(ops) < n; {
					switch r := rng.Intn(10); {
					case r < 4:
						isbn := key()
						class := "Item"
						attrs := map[string]object.Value{
							"title": object.Str("rnd"), "isbn": isbn,
							"publisher": object.Ref{DB: remote.Name(), OID: pubs[rng.Intn(len(pubs))].OID()},
							"shopprice": object.Real(20), "libprice": object.Real(10),
						}
						if rng.Intn(3) == 0 {
							class = "Proceedings"
							attrs["ref?"], attrs["rating"] = object.Bool(true), object.Int(8)
						}
						ops = append(ops, Mutation{Kind: MutInsert, Class: class, Attrs: attrs})
						claimed = append(claimed, isbn)
					case r < 8:
						g := target()
						if len(rekeyed) > 0 && rng.Intn(3) == 0 && live[rekeyed[0].ID] {
							g = rekeyed[rng.Intn(len(rekeyed))] // re-key a member again
							if !live[g.ID] {
								continue
							}
						}
						if g == nil {
							continue
						}
						if old, ok := g.Get("isbn"); ok {
							freed = append(freed, old)
						}
						ops = append(ops, Mutation{Kind: MutUpdate, Class: "Item", ID: g.ID, Attrs: map[string]object.Value{"isbn": key()}})
						rekeyed = append(rekeyed, g)
					default:
						g := target()
						if g == nil {
							continue
						}
						if old, ok := g.Get("isbn"); ok {
							freed = append(freed, old)
						}
						ops = append(ops, Mutation{Kind: MutDelete, Class: "Item", ID: g.ID})
						delete(live, g.ID)
					}
				}
				what := fmt.Sprintf("round %d", round)
				rejs := validateBoth(t, e, what, ops)
				if got, want := keyRejectionsOf(rejs), oracleKeyRejections(e, ops); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: key rejections\n%v\nwant (from scratch)\n%v", what, got, want)
				}
				if len(rejs) > 0 {
					rejected++
				} else if err := ship(e, ops); err == nil {
					shipped++
				}
			}
			t.Logf("seed %d: %d batches rejected, %d shipped", seed, rejected, shipped)
			if rejected == 0 || shipped == 0 {
				t.Error("the generator needs batches that are rejected and batches that ship")
			}
		})
	}
}

// TestValidateSingleOpAllocBound pins what a one-op Validate allocates:
// a doomed Proceedings insert (a rejection with repair proposals) and a
// clean key update. The declared-attribute sets, an insert's class chain
// and its constraint group come from per-class caches, a key check's
// index signature is computed with its group, and the evaluation
// environment is built once per batch, so none of them allocates per op.
// Rejection details and repair texts are built without fmt, whose pooled
// printer the race detector's sync.Pool drops at random, so the counts
// are the same under -race.
func TestValidateSingleOpAllocBound(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 10)
	doomed := insertOf("Proceedings", map[string]object.Value{
		"title": object.Str("x"), "isbn": object.Str("alloc-bound"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(8),
	})
	rekey := updateOf("Item", findByISBN(t, e, "vldb96").ID, map[string]object.Value{"isbn": object.Str("alloc-bound")})
	for _, c := range []struct {
		what  string
		ops   []Mutation
		rejs  int
		bound float64
	}{
		{"doomed insert", doomed, 1, 25},
		{"key update", rekey, 0, 19},
	} {
		if rejs := rejectionsOf(t, e, c.ops); len(rejs) != c.rejs {
			t.Fatalf("%s: rejections %v, want %d", c.what, rejs, c.rejs)
		}
		allocs := testing.AllocsPerRun(50, func() { _, _, _ = e.Validate(bg, c.ops) })
		t.Logf("%s: %.0f allocs", c.what, allocs)
		if allocs > c.bound {
			t.Errorf("%s: one-op Validate allocates %.0f, bound %.0f", c.what, allocs, c.bound)
		}
	}
}

// BenchmarkValidateBatch validates one Tx of 50, 250 and 1 000 fresh
// Item inserts (a bulk load's shape) and reports ns per insert: with
// staged keys filed once, the figure stays flat as the batch grows.
func BenchmarkValidateBatch(b *testing.B) {
	e, _, remote := scaledEngineStores(b, 10)
	pub := object.Ref{DB: remote.Name(), OID: remote.Extent("Publisher")[0].OID()}
	for _, n := range []int{50, 250, 1000} {
		b.Run(fmt.Sprintf("inserts=%d", n), func(b *testing.B) {
			ops := make([]Mutation, n)
			for i := range ops {
				ops[i] = Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
					"title": object.Str("load"), "isbn": object.Str(fmt.Sprintf("load-%d", i)), "publisher": pub,
					"shopprice": object.Real(20), "libprice": object.Real(10),
				}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rejs, _, err := e.Validate(bg, ops); err != nil || len(rejs) != 0 {
					b.Fatalf("load batch: %v %v", rejs, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
		})
	}
}
