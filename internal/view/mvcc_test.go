package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// Concurrency differential harness for snapshot publication (DESIGN.md
// §12). The serial differential batteries (serve_test, snapshot_test,
// mutate_test) pin WHAT each snapshot serves; this file pins what
// concurrent readers may OBSERVE while writers publish:
//
//   - prefix consistency: the sequence of the snapshot a reader loads
//     never runs backwards, and two loads at the same sequence serve the
//     same state;
//   - batch atomicity: a Ship batch is visible in full or not at all —
//     never a prefix of its inserts;
//   - no torn cross-class reads: an object updated through one Ship call
//     shows the same attribute values from every class extent of one
//     held snapshot, even though each class publishes its own state;
//   - reclamation by the collector: a class state a publication retires
//     is collected once no reader holds a snapshot that maps it (under
//     churning readers, under a reader that holds one snapshot across
//     many publications, and for a single retired state).
//
// Everything here runs under -race in CI (the race job covers
// ./internal/view/...).

// stampedClasses returns the global classes that serve g in their
// extents, sorted — the cross-class torn-read probe set. Serial: reads
// the live view.
func stampedClasses(t *testing.T, e *Engine, g *core.GObj) []string {
	t.Helper()
	var out []string
	for cls := range g.Classes {
		for _, m := range e.res.View.Extent(cls) {
			if m.ID == g.ID {
				out = append(out, cls)
				break
			}
		}
	}
	sort.Strings(out)
	if len(out) < 2 {
		t.Fatalf("stamp object g%d is served by %d class(es), need >= 2 for a cross-class probe", g.ID, len(out))
	}
	return out
}

// findInExt returns the extent member with the given global ID, if any.
func findInExt(ext []*core.GObj, id int) (*core.GObj, bool) {
	for _, g := range ext {
		if g.ID == id {
			return g, true
		}
	}
	return nil, false
}

// TestMVCCPrefixConsistentReaders races randomized readers against a
// writer shipping insert batches and cross-class update stamps, at the
// same scales as the serial differential battery. Readers hold snapshots
// loaded from the engine's published pointer and assert the observation
// contract above; a final serial pass re-checks the end state against
// the mutex+scan reference.
func TestMVCCPrefixConsistentReaders(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			mvccStress(t, scale)
		})
	}
}

func mvccStress(t *testing.T, scale int) {
	e, _, _ := scaledEngineStores(t, scale)
	// The stamp object: bookseller-only (single-constituent), so rating
	// updates ship to the Bookseller alone.
	target := findByISBN(t, e, "caise96")
	probeClasses := stampedClasses(t, e, target)
	titlePrefix := fmt.Sprintf("mvcc-%d-", scale)

	const (
		batches = 40
		batchK  = 3 // inserts per batch: atomicity is meaningless at 1
		readers = 4
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	writerErr := make(chan error, 1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(int64(scale)*104729 + 1))
		for b := 0; b < batches; b++ {
			ops := make([]Mutation, 0, batchK+1)
			for j := 0; j < batchK; j++ {
				ops = append(ops, Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
					"title":     object.Str(fmt.Sprintf("%s%d", titlePrefix, b)),
					"isbn":      object.Str(fmt.Sprintf("%s%d-%d", titlePrefix, b, j)),
					"publisher": object.Ref{DB: "Bookseller", OID: 2},
					"shopprice": object.Real(float64(20 + rng.Intn(40))),
					"libprice":  object.Real(10),
				}})
			}
			if rng.Intn(2) == 0 {
				// Stamp the probe object inside the same atomic batch: its
				// new rating must appear in every probe class together.
				ops = append(ops, Mutation{Kind: MutUpdate, Class: "Proceedings", ID: target.ID,
					Attrs: map[string]object.Value{"rating": object.Int(int64(7 + b%3))}})
			}
			if err := ship(e, ops); err != nil {
				writerErr <- fmt.Errorf("batch %d: %w", b, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*31337 + 7))
			q := Query{Class: "Item", Where: expr.MustParse("shopprice >= 20")}
			var lastSeq uint64
			lastLen := -1
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one final iteration observes the end state
				default:
				}
				if rng.Intn(3) == 0 {
					// Public serving path: concurrent planning, compiled
					// serving and shared cache counters under -race.
					if _, _, err := e.Run(q); err != nil {
						t.Errorf("reader %d: Run: %v", r, err)
						return
					}
					continue
				}
				s := e.snap.Load()
				items := s.class("Item").ext
				// Prefix consistency: sequences never run backwards, the
				// insert-only Item extent never shrinks, and one sequence
				// always serves one state.
				if s.seq < lastSeq {
					t.Errorf("reader %d: loaded sequence went backwards: %d after %d", r, s.seq, lastSeq)
				}
				if s.seq == lastSeq && lastLen >= 0 && len(items) != lastLen {
					t.Errorf("reader %d: two loads at seq %d served %d then %d Items", r, s.seq, lastLen, len(items))
				}
				if s.seq > lastSeq && lastLen > len(items) {
					t.Errorf("reader %d: Item extent shrank %d -> %d across seq %d -> %d",
						r, lastLen, len(items), lastSeq, s.seq)
				}
				lastSeq, lastLen = s.seq, len(items)
				// Batch atomicity: every batch's title group is complete or
				// absent — a torn batch would surface as a partial count.
				counts := map[string]int{}
				for _, g := range items {
					if v, ok := g.Get("title"); ok {
						if str, ok := v.(object.Str); ok && strings.HasPrefix(string(str), titlePrefix) {
							counts[string(str)]++
						}
					}
				}
				for title, n := range counts {
					if n != batchK {
						t.Errorf("reader %d: torn batch at seq %d: %d of %d inserts of %q visible",
							r, s.seq, n, batchK, title)
					}
				}
				// No torn cross-class reads: the stamp object's rating
				// agrees across every class state of this one snapshot.
				var ratings []object.Value
				for _, cls := range probeClasses {
					g, ok := findInExt(s.class(cls).ext, target.ID)
					if !ok {
						t.Errorf("reader %d: stamp object missing from class %s at seq %d", r, cls, s.seq)
						continue
					}
					if v, ok := g.Get("rating"); ok {
						ratings = append(ratings, v)
					}
				}
				for _, v := range ratings[1:] {
					if !v.Equal(ratings[0]) {
						t.Errorf("reader %d: torn cross-class read at seq %d: ratings %v across classes %v",
							r, s.seq, ratings, probeClasses)
					}
				}
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}

	// End state: every batch landed, and the serving path still matches
	// the mutex+scan reference byte for byte.
	s := e.snap.Load()
	total := 0
	for _, g := range s.class("Item").ext {
		if v, ok := g.Get("title"); ok {
			if str, ok := v.(object.Str); ok && strings.HasPrefix(string(str), titlePrefix) {
				total++
			}
		}
	}
	if total != batches*batchK {
		t.Errorf("end state holds %d harness Items, want %d", total, batches*batchK)
	}
	for _, q := range []Query{
		{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = '%s0-0'", titlePrefix))},
		{Class: "Item", Where: expr.MustParse("shopprice >= 20 and libprice <= shopprice")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
	} {
		runVsReference(t, e, q)
	}
}

// TestConcurrentWritersPublishInLock races several writers through the
// write lock and pins the publication invariant: whenever e.mu is free,
// the published snapshot equals the live view. An observer compares
// every published class extent with the live one under the read lock;
// every Ship publishes exactly once; every insert is visible to its
// writer as soon as Ship returns (read-your-writes).
func TestConcurrentWritersPublishInLock(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	const writers, each = 4, 25
	pre := e.CacheStats().Publishes

	// lagging reports the first class whose published extent differs
	// from the live one. Caller holds e.mu.
	lagging := func() string {
		s := e.snap.Load()
		if len(s.classes) != len(e.res.View.ClassNames) {
			return fmt.Sprintf("class set: %d published, %d live", len(s.classes), len(e.res.View.ClassNames))
		}
		for _, class := range e.res.View.ClassNames {
			pub, live := s.class(class).ext, e.res.View.Extent(class)
			if len(pub) != len(live) {
				return fmt.Sprintf("%s: %d published, %d live", class, len(pub), len(live))
			}
			for i := range pub {
				if pub[i] != live[i] {
					return fmt.Sprintf("%s: member %d is g%d published, g%d live", class, i, pub[i].ID, live[i].ID)
				}
			}
		}
		return ""
	}
	done := make(chan struct{})
	observed := make(chan error, 1)
	go func() {
		holds := 0
		for {
			var lag string
			e.ReadLocked(func() { lag = lagging() })
			holds++
			if lag != "" {
				observed <- fmt.Errorf("hold %d: snapshot lags the live view: %s", holds, lag)
				return
			}
			select {
			case <-done:
				observed <- nil
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				attrs := map[string]object.Value{
					"title":     object.Str(fmt.Sprintf("pub-%d", w)),
					"isbn":      object.Str(fmt.Sprintf("pub-%d-%d", w, i)),
					"publisher": object.Ref{DB: "Bookseller", OID: 2},
					"shopprice": object.Real(30),
					"libprice":  object.Real(10),
				}
				if err := ship(e, insertOf("Item", attrs)); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				// Read-your-writes: Ship published the insert before it
				// released the write lock.
				s := e.snap.Load()
				_, found := func() (*core.GObj, bool) {
					want := object.Str(fmt.Sprintf("pub-%d-%d", w, i))
					for _, g := range s.class("Item").ext {
						if v, ok := g.Get("isbn"); ok && v.Equal(want) {
							return g, true
						}
					}
					return nil, false
				}()
				if !found {
					t.Errorf("writer %d: insert %d not visible in the snapshot its Ship call returned behind", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := <-observed; err != nil {
		t.Error(err)
	}
	if got := e.CacheStats().Publishes - pre; got != writers*each {
		t.Errorf("%d Ship calls published %d times, want one publication each", writers*each, got)
	}

	rows, _, err := e.Run(Query{Class: "Item", Where: expr.MustParse("shopprice = 30 and libprice = 10")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < writers*each {
		t.Errorf("served %d harness rows, want >= %d", len(rows), writers*each)
	}
}

// finalizeRetired sets a finalizer on every class state that prev maps
// and cur does not — the states the publication from prev to cur
// retired — unless keep (a held snapshot's map, or nil) still maps it.
// Each finalizer adds one to collected; the count of states finalized
// is returned.
func finalizeRetired(prev, cur, keep map[string]*classState, collected *atomic.Int64) int {
	n := 0
	for name, cs := range prev {
		if cur[name] == cs || keep[name] == cs {
			continue
		}
		runtime.SetFinalizer(cs, func(*classState) { collected.Add(1) })
		n++
	}
	return n
}

// awaitCollected runs the collector until collected reaches want,
// reporting whether it did.
func awaitCollected(collected *atomic.Int64, want int64) bool {
	for i := 0; i < 200; i++ {
		runtime.GC()
		if collected.Load() >= want {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestRetiredClassStatesCollected drives sustained mutation against
// readers that hold snapshots across real serving work — an index-served
// read and a scan that builds columns (column.go) — and requires
// every class state a publication retired to be collected once the
// readers stop. This is the leak test: nothing but a held snapshot may
// keep a retired state alive, so retention cannot grow with the
// mutation count.
func TestRetiredClassStatesCollected(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	target := findByISBN(t, e, "caise96")
	const (
		mutations = 150
		readers   = 3
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// An index-served read, and a residual scan that builds
			// columns on every class state it reads.
			qs := []Query{
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < libprice + 100")},
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Hold the snapshot across real serving work so
				// publications overlap held snapshots.
				s := e.snap.Load()
				for _, cls := range []string{"Item", "Proceedings"} {
					if ext := s.class(cls).ext; len(ext) == 0 {
						t.Errorf("reader %d: empty %s extent", r, cls)
					}
				}
				for _, q := range qs {
					if _, _, err := e.Run(q); err != nil {
						t.Errorf("reader %d: Run: %v", r, err)
					}
				}
			}
		}(r)
	}

	var collected atomic.Int64
	retired := func() int {
		n := 0
		prev := e.snap.Load().classes
		for i := 0; i < mutations; i++ {
			var err error
			if i%3 == 0 {
				// Fork path: full per-class copies, the expensive
				// retention case.
				err = ship(e, updateOf("Proceedings", target.ID,
					map[string]object.Value{"rating": object.Int(int64(7 + i%3))}))
			} else {
				err = ship(e, insertOf("Item", map[string]object.Value{
					"title":     object.Str("reclaim"),
					"isbn":      object.Str(fmt.Sprintf("reclaim-%d", i)),
					"publisher": object.Ref{DB: "Bookseller", OID: 2},
					"shopprice": object.Real(30),
					"libprice":  object.Real(10),
				}))
			}
			if err != nil {
				t.Fatalf("mutation %d: %v", i, err)
			}
			cur := e.snap.Load().classes
			n += finalizeRetired(prev, cur, nil, &collected)
			prev = cur
		}
		return n
	}()
	close(stop)
	wg.Wait()

	if retired < mutations {
		t.Fatalf("%d mutations retired %d class states, want at least one each", mutations, retired)
	}
	if !awaitCollected(&collected, int64(retired)) {
		t.Errorf("%d of %d retired class states collected after the readers stopped: something still references them",
			collected.Load(), retired)
	}
}

// TestHeldSnapshotRetainsOnlyItsStates pins the retention bound: a
// reader holding a snapshot across 120 publications keeps exactly that
// snapshot's class states alive — it still serves its frozen ratings —
// while every intermediate state the updates published and retired is
// collected.
func TestHeldSnapshotRetainsOnlyItsStates(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	target := findByISBN(t, e, "caise96")
	probeClasses := stampedClasses(t, e, target)

	s := e.snap.Load()
	g0, ok := findInExt(s.class("Proceedings").ext, target.ID)
	if !ok {
		t.Fatal("stall target missing from the held Proceedings extent")
	}
	rating0, _ := g0.Get("rating")

	const updates = 120
	var collected atomic.Int64
	intermediate := 0
	prev := s.classes
	for i := 0; i < updates; i++ {
		if err := ship(e, updateOf("Proceedings", target.ID,
			map[string]object.Value{"rating": object.Int(int64(7 + i%3))})); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		cur := e.snap.Load().classes
		intermediate += finalizeRetired(prev, cur, s.classes, &collected)
		prev = cur
	}

	if e.snap.Load().classes["Proceedings"] == s.classes["Proceedings"] {
		t.Fatal("the updates did not retire the held snapshot's Proceedings state")
	}
	// Every update but the last retired the state its predecessor
	// published, for each class serving the target.
	if want := (updates - 1) * len(probeClasses); intermediate < want {
		t.Fatalf("%d intermediate class states retired, want >= %d", intermediate, want)
	}
	if !awaitCollected(&collected, int64(intermediate)) {
		t.Errorf("%d of %d intermediate class states collected while one snapshot is held: retention grows with the update count",
			collected.Load(), intermediate)
	}

	// The held snapshot still serves its frozen state, cross-class
	// consistent at its own sequence.
	for _, cls := range probeClasses {
		g, ok := findInExt(s.class(cls).ext, target.ID)
		if !ok {
			t.Fatalf("stall target missing from held class %s", cls)
		}
		if v, ok := g.Get("rating"); ok && !v.Equal(rating0) {
			t.Errorf("held snapshot's %s rating drifted: %v, want %v", cls, v, rating0)
		}
	}
}

// TestRetiredClassStateIsCollectable proves retired states are real
// garbage: a finalizer set on a classState fires once publications have
// replaced it and no reader holds a snapshot that maps it — no hidden
// reference from the engine or a newer snapshot keeps it alive.
func TestRetiredClassStateIsCollectable(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	target := findByISBN(t, e, "caise96")

	collected := make(chan struct{})
	// Scope the load so no local in the test frame keeps the state alive.
	func() {
		cs := e.snap.Load().class("Proceedings")
		if len(cs.ext) == 0 {
			t.Fatal("empty published Proceedings extent")
		}
		runtime.SetFinalizer(cs, func(*classState) { close(collected) })
	}()

	// Two fork publications: the first retires the finalized state, the
	// second its successor; neither snapshot that mapped it is held.
	for i := 0; i < 2; i++ {
		if err := ship(e, updateOf("Proceedings", target.ID,
			map[string]object.Value{"rating": object.Int(int64(8 + i))})); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("retired classState was never collected: something still references it")
}

// TestHeldSnapshotAcrossFold holds a snapshot while later writes force
// both folds: more than foldAt writes to Item with reads between them,
// so Item's indexes are derived from a base and then rebuilt fresh into
// a new one, and enough inserts, updates and deletes — a publisher
// renamed among them — that the deref table's side entries pass
// foldRefsAt and it folds. The held snapshot must still serve its rows
// byte for byte, and resolve every Item's publisher to its own objects.
func TestHeldSnapshotAcrossFold(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	queries := []Query{
		{Class: "Item", Where: expr.MustParse("shopprice >= 20")},
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Item", Where: expr.MustParse("publisher.name = 'ACM' and shopprice < 100")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE'")},
	}
	serve := func(s *snapshot) [][]Row {
		var out [][]Row
		for _, q := range queries {
			rows, _, err := e.runSnapshot(bg, s, q)
			if err != nil {
				t.Fatalf("%v: %v", q.Where, err)
			}
			out = append(out, rows)
		}
		return out
	}
	held := e.snap.Load()
	want := serve(held) // also builds the held state's indexes: the first bases
	heldIsbn, _ := held.class("Item").eq.Load("isbn")
	publishers := map[object.Ref]expr.Object{}
	for _, g := range held.class("Item").ext {
		if r, ok := g.Get("publisher"); ok {
			if ref, ok := r.(object.Ref); ok {
				publishers[ref], _ = held.deref(ref)
			}
		}
	}
	if len(publishers) == 0 {
		t.Fatal("no Item of the held snapshot names a publisher")
	}
	var acm *core.GObj
	for _, g := range e.res.View.Extent("Publisher") {
		if v, ok := g.Get("name"); ok && v.Equal(object.Str("ACM")) {
			acm = g
		}
	}
	if acm == nil {
		t.Fatal("no ACM publisher")
	}

	for i := 0; i < 40; i++ {
		isbn := fmt.Sprintf("fold-%d", i)
		if err := ship(e, insertOf("Item", map[string]object.Value{
			"title": object.Str("fold"), "isbn": object.Str(isbn), "publisher": object.Ref{DB: "Bookseller", OID: 2},
			"shopprice": object.Real(float64(30 + i)), "libprice": object.Real(10),
		})); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		g := findByISBN(t, e, isbn)
		if err := ship(e, updateOf("Item", g.ID, map[string]object.Value{"shopprice": object.Real(float64(60 + i))})); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i%3 == 0 {
			if err := ship(e, deleteOf("Item", g.ID)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
		if i%10 == 0 {
			if err := ship(e, updateOf("Publisher", acm.ID, map[string]object.Value{
				"name": object.Str(fmt.Sprintf("ACM-%d", i))})); err != nil {
				t.Fatalf("publisher rename %d: %v", i, err)
			}
		}
		for _, q := range queries {
			runVsReference(t, e, q)
		}
	}

	cur := e.snap.Load()
	if cur.refs == held.refs {
		t.Error("the deref table never folded")
	}
	if b := cur.class("Item").bases[baseKey{attr: "isbn"}].eq; b == nil || b == heldIsbn {
		t.Error("Item's isbn index never folded into a fresh base")
	}
	if got := serve(held); !reflect.DeepEqual(got, want) {
		t.Errorf("the held snapshot's rows changed across the folds:\ngot  %v\nwant %v", got, want)
	}
	for ref, g := range publishers {
		if now, _ := held.deref(ref); now != g {
			t.Errorf("the held snapshot resolves %v to %v, it resolved %v", ref, now, g)
		}
	}
}
