package interopdb

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFederationConcurrentMembership exercises Attach and Detach under
// live traffic (run with -race in CI): concurrent Run, HasClass/Classes,
// Validate and Ship callers proceed throughout repeated membership changes,
// and readers never observe a torn membership — the archive's Record
// extension is either fully absent or fully present, and extents the
// membership change does not touch keep their cardinality.
func TestFederationConcurrentMembership(t *testing.T) {
	const scale = 2
	fed := buildFigure1Federation(t, scale, false)
	e := fed.Engine()

	// A reader that ran its query before any membership change re-runs
	// it after every detach and must get the rows it got then — same
	// objects, same values, same order: the graft swaps clones into the
	// extents in place, the retraction filters them in order, and the
	// writers below only ever add Proceedings, which no Publication is.
	publications := func() string {
		rows, _, err := e.Run(Query{Class: "Publication"})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	pinned := publications()

	// Learn the two legal cardinalities quiescently.
	archive := ArchiveStore(FixtureOptions{Scale: scale})
	aspec, ais := Figure1UnivArchive(), Figure1ArchiveIntegration()
	if err := fed.Attach(aspec, archive, ais); err != nil {
		t.Fatal(err)
	}
	recordRows, _, err := e.Run(Query{Class: "Record"})
	if err != nil {
		t.Fatal(err)
	}
	attached := len(recordRows)
	if attached == 0 {
		t.Fatal("no Record members while attached")
	}
	sciRows, _, err := e.Run(Query{Class: "ScientificPubl"})
	if err != nil {
		t.Fatal(err)
	}
	sciCount := len(sciRows)
	if got := publications(); got == pinned {
		t.Fatal("attaching the archive left the Publication rows untouched: the pinned reader checks nothing")
	}
	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}
	if got := publications(); got != pinned {
		t.Fatalf("Publication rows after attach+detach differ from before:\n%s\nvs\n%s", got, pinned)
	}

	var stop atomic.Bool
	errs := make(chan error, 32)
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rows, _, err := e.Run(Query{Class: "Record"})
				if err != nil {
					errs <- fmt.Errorf("Run(Record): %w", err)
					return
				}
				if n := len(rows); n != 0 && n != attached {
					errs <- fmt.Errorf("torn membership: Record extent %d, want 0 or %d", n, attached)
					return
				}
				rows, _, err = e.Run(Query{Class: "ScientificPubl", Where: MustParseExpr("rating >= 1")})
				if err != nil {
					errs <- fmt.Errorf("Run(ScientificPubl): %w", err)
					return
				}
				if len(rows) != sciCount {
					errs <- fmt.Errorf("untouched extent moved: ScientificPubl %d, want %d", len(rows), sciCount)
					return
				}
				// The class checks of the request paths: HasClass reads the
				// published snapshot, Classes the live list under the read
				// lock — neither may race the membership change rewriting
				// that list (the -race half of this test).
				if !e.HasClass("ScientificPubl") || !slices.Contains(e.Classes(), "ScientificPubl") {
					errs <- fmt.Errorf("ScientificPubl vanished from the class list mid-membership-change")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			attrs := map[string]Value{
				"title": Str("probe"), "isbn": Str(fmt.Sprintf("probe-%d", i)),
				"publisher": Ref{DB: "Bookseller", OID: 1},
				"shopprice": Real(30), "libprice": Real(25),
				"ref?": Bool(true), "rating": Int(8),
			}
			_, _, _ = e.Validate(context.Background(), []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			attrs := map[string]Value{
				"title": Str("Shipped During Membership Change"), "isbn": Str(fmt.Sprintf("ship-%d", i)),
				"publisher": Ref{DB: "Bookseller", OID: 2},
				"authors":   NewSet(Str("Writer")),
				"shopprice": Real(45), "libprice": Real(40),
				"ref?": Bool(true), "rating": Int(9),
			}
			if err := e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}}); err != nil {
				errs <- fmt.Errorf("Ship: %w", err)
				return
			}
		}
	}()

	for cycle := 0; cycle < 3; cycle++ {
		if err := fed.Attach(aspec, archive, ais); err != nil {
			t.Fatalf("cycle %d attach: %v", cycle, err)
		}
		if err := fed.Detach("UnivArchive"); err != nil {
			t.Fatalf("cycle %d detach: %v", cycle, err)
		}
		if got := publications(); got != pinned {
			t.Fatalf("cycle %d: Publication rows after the detach differ from before the first attach:\n%s\nvs\n%s", cycle, got, pinned)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
