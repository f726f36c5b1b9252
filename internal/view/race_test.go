package view

import (
	"fmt"
	"sync"
	"testing"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// TestConcurrentServe exercises the fresh data-race surface of the
// serving fast path under the race detector: the shared entailment memo,
// the lazily-built extent indexes (hash, ordered and key), the per-class
// constraint cache, and view growth through Ship — all from
// concurrent Run, Validate and Ship callers.
func TestConcurrentServe(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 10)

	queries := []Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Item", Where: expr.MustParse("shopprice < 40 and libprice > 20")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
		{Class: "Item", Select: []string{"title", "isbn"}},
	}
	attrsFor := func(isbn string) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str("Concurrent " + isbn), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
			"shopprice": object.Real(12), "libprice": object.Real(9),
			"ref?": object.Bool(true), "rating": object.Int(8),
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := e.Run(q); err != nil {
					errs <- fmt.Errorf("Run(%v): %w", q.Where, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// A mix of doomed and clean inserts.
				a := attrsFor(fmt.Sprintf("probe-%d-%d", w, i))
				if i%2 == 0 {
					a["isbn"] = object.Str("vldb96") // duplicate key
				}
				rejectionsOf(t, e, insertOf("Item", a))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			a := attrsFor(fmt.Sprintf("shipped-%d", i))
			if err := ship(e, insertOf("Proceedings", a)); err != nil {
				errs <- fmt.Errorf("Ship %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All shipped inserts are visible afterwards.
	rows, _, err := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("contains(title, 'Concurrent')")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("shipped inserts visible = %d, want 10", len(rows))
	}
}

// TestConcurrentMutate exercises the mutation lifecycle's concurrency
// contract under the race detector: Run and Validate share the read
// lock while Ship calls serialise view growth, key-index maintenance
// and reclassification behind the write lock; validators build and
// probe the key index side by side.
func TestConcurrentMutate(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 10)

	queries := []Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 30")},
		{Class: "RefereedPubl", Where: expr.MustParse("rating >= 1")},
		{Class: "Item", Select: []string{"title", "isbn"}},
	}
	var ids []int
	for _, g := range e.res.View.Extent("Item") {
		ids = append(ids, g.ID)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := e.Run(q); err != nil {
					errs <- fmt.Errorf("Run(%v): %w", q.Where, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// A key check against keys the mutator is inserting: the
				// validators' first ones build the key index together.
				if _, _, err := e.Validate(bg, insertOf("Item", map[string]object.Value{
					"title": object.Str("probe"), "isbn": object.Str(fmt.Sprintf("race-%d", i%30)),
					"publisher": object.Ref{DB: "Bookseller", OID: 3},
					"shopprice": object.Real(15), "libprice": object.Real(10),
				})); err != nil {
					errs <- fmt.Errorf("Validate insert: %w", err)
					return
				}
				id := ids[(w*17+i)%len(ids)]
				// Both validation reads and shipped writes; local
				// rejections and vanished objects are expected outcomes.
				if _, _, err := e.Validate(bg, updateOf("Item", id, map[string]object.Value{
					"shopprice": object.Real(float64(20 + i)),
				})); err != nil {
					continue // object deleted by the mutator goroutine
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			id := ids[(i*13)%len(ids)]
			switch i % 3 {
			case 0:
				_ = ship(e, updateOf("Item", id, map[string]object.Value{
					"shopprice": object.Real(float64(25 + i)), "libprice": object.Real(10),
				}))
			case 1:
				_ = ship(e, deleteOf("Item", id))
			case 2:
				_ = ship(e, []Mutation{
					{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
						"title": object.Str(fmt.Sprintf("race-%d", i)), "isbn": object.Str(fmt.Sprintf("race-%d", i)),
						"publisher": object.Ref{DB: "Bookseller", OID: 3},
						"shopprice": object.Real(15), "libprice": object.Real(10),
					}},
				})
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The engine still serves a consistent view afterwards.
	if viols, _ := e.CheckAll(); len(viols) != 0 {
		t.Errorf("view inconsistent after concurrent mutation: %v", viols)
	}
}

// TestSnapshotIsolationUnderMutation is the snapshot-isolation proof for
// the lock-free serving path: randomized concurrent readers during
// Ship calls must observe only pre- or post-images, never a torn
// mix. A writer flips probe objects between two internally consistent
// whole images; readers assert every observed row is one of the two
// images, and — for the PAIR flipped atomically by a single two-update
// Ship — that one snapshot never mixes versions across the pair. A
// third probe is flipped by singleton updates, where only the per-row
// wholeness claim holds (two sequential updates legitimately publish an
// intermediate snapshot). Run under -race in CI, this also proves Run
// touches nothing the mutators write.
func TestSnapshotIsolationUnderMutation(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 10)

	// Probe objects, version-stamped through their title: state A is
	// (shopprice 30, libprice 10, title vA), state B is (shopprice 80,
	// libprice 60, title vB). Both states satisfy every global
	// constraint, so mutations always ship.
	type image struct {
		shop, lib float64
		title     string
	}
	imgA := image{30, 10, "iso-vA"}
	imgB := image{80, 60, "iso-vB"}
	attrsOf := func(img image) map[string]object.Value {
		return map[string]object.Value{
			"shopprice": object.Real(img.shop), "libprice": object.Real(img.lib),
			"title": object.Str(img.title),
		}
	}
	isbns := []string{"iso-0", "iso-1", "iso-solo"}
	idByISBN := map[string]int{}
	for _, isbn := range isbns {
		a := attrsOf(imgA)
		a["isbn"] = object.Str(isbn)
		a["publisher"] = object.Ref{DB: "Bookseller", OID: 2}
		if err := ship(e, insertOf("Item", a)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range e.res.View.Extent("Item") {
		if v, ok := g.Get("isbn"); ok {
			for _, isbn := range isbns {
				if v.Equal(object.Str(isbn)) {
					idByISBN[isbn] = g.ID
				}
			}
		}
	}
	if len(idByISBN) != len(isbns) {
		t.Fatalf("probe objects not found: %v", idByISBN)
	}

	matches := func(r Row, img image) bool {
		shop, _ := object.AsFloat(r["shopprice"])
		lib, _ := object.AsFloat(r["libprice"])
		return shop == img.shop && lib == img.lib && r["title"].Equal(object.Str(img.title))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})

	// Pair readers: every row a whole image, AND one snapshot shows one
	// version across the pair (the pair only ever flips through ONE
	// atomic Ship batch → one publication).
	pairQ := Query{Class: "Item", Where: expr.MustParse("isbn in {'iso-0', 'iso-1'}")}
	soloQ := Query{Class: "Item", Where: expr.MustParse("isbn = 'iso-solo'")}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, _, err := e.Run(pairQ)
				if err != nil {
					errs <- fmt.Errorf("pair reader %d: %w", w, err)
					return
				}
				nA, nB := 0, 0
				for _, r := range rows {
					switch {
					case matches(r, imgA):
						nA++
					case matches(r, imgB):
						nB++
					default:
						errs <- fmt.Errorf("pair reader %d: torn row %v (neither image A nor B)", w, r)
						return
					}
				}
				if nA+nB != 2 {
					errs <- fmt.Errorf("pair reader %d: %d probe rows, want 2", w, nA+nB)
					return
				}
				if nA > 0 && nB > 0 {
					errs <- fmt.Errorf("pair reader %d: mixed versions in one snapshot: %d×A %d×B", w, nA, nB)
					return
				}
				// The solo probe may sit mid-flip relative to the pair,
				// but each observed row must still be a whole image.
				srows, _, err := e.Run(soloQ)
				if err != nil {
					errs <- fmt.Errorf("solo reader %d: %w", w, err)
					return
				}
				if len(srows) != 1 || (!matches(srows[0], imgA) && !matches(srows[0], imgB)) {
					errs <- fmt.Errorf("solo reader %d: torn or missing row %v", w, srows)
					return
				}
			}
		}(w)
	}

	// Writer: the pair flips only through atomic two-update batches; the
	// solo probe flips through singleton updates in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		cur := imgA
		for i := 0; i < 40; i++ {
			next := imgB
			if cur == imgB {
				next = imgA
			}
			ops := []Mutation{
				{Kind: MutUpdate, Class: "Item", ID: idByISBN["iso-0"], Attrs: attrsOf(next)},
				{Kind: MutUpdate, Class: "Item", ID: idByISBN["iso-1"], Attrs: attrsOf(next)},
			}
			if err := ship(e, ops); err != nil {
				errs <- fmt.Errorf("writer tx %d: %w", i, err)
				return
			}
			if err := ship(e, updateOf("Item", idByISBN["iso-solo"], attrsOf(next))); err != nil {
				errs <- fmt.Errorf("writer update %d: %w", i, err)
				return
			}
			cur = next
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotIsolationDeleteReinsert drives delete + reinsert batches
// under concurrent readers: a reader sees the probe object fully present
// (one whole image) or fully absent — and with the delete and reinsert
// shipped as ONE Ship batch, never absent at all.
func TestSnapshotIsolationDeleteReinsert(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 5)

	attrs := map[string]object.Value{
		"title": object.Str("delete-probe"), "isbn": object.Str("del-probe"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2},
		"shopprice": object.Real(25), "libprice": object.Real(15),
	}
	if err := ship(e, insertOf("Item", attrs)); err != nil {
		t.Fatal(err)
	}
	findID := func() int {
		for _, g := range e.res.View.Extent("Item") {
			if v, ok := g.Get("isbn"); ok && v.Equal(object.Str("del-probe")) {
				return g.ID
			}
		}
		return 0
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	q := Query{Class: "Item", Where: expr.MustParse("isbn = 'del-probe'")}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, _, err := e.Run(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if len(rows) > 1 {
					errs <- fmt.Errorf("reader %d: duplicate probe: %v", w, rows)
					return
				}
				if len(rows) == 1 {
					shop, _ := object.AsFloat(rows[0]["shopprice"])
					lib, _ := object.AsFloat(rows[0]["libprice"])
					if shop != 25 || lib != 15 {
						errs <- fmt.Errorf("reader %d: torn probe image: %v", w, rows[0])
						return
					}
				} else {
					errs <- fmt.Errorf("reader %d: probe absent despite atomic delete+reinsert batches", w)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 30; i++ {
			id := findID()
			if id == 0 {
				errs <- fmt.Errorf("writer: probe lost at iteration %d", i)
				return
			}
			// One batch: delete + reinsert. Readers must never see the gap.
			ops := []Mutation{
				{Kind: MutDelete, Class: "Item", ID: id},
				{Kind: MutInsert, Class: "Item", Attrs: attrs},
			}
			if err := ship(e, ops); err != nil {
				errs <- fmt.Errorf("writer batch %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
