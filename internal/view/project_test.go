package view

import (
	"maps"
	"reflect"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// TestProjectionFrozenAcrossWrites pins the memoised rows' contract
// (DESIGN §8.4): a row Run returned before a write keeps its values
// after the write, and the next Run returns the written state. It takes
// rows before a shipped update, a shipped delete, an attach and a
// detach, under several select lists — two of them of one length, so a
// memo that told select lists apart by length alone would serve one
// list's rows for the other — and compares each later Run with the
// reference scan's fresh projections.
func TestProjectionFrozenAcrossWrites(t *testing.T) {
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: 1})
	arch := fixture.ArchiveStore(fixture.Options{Scale: 1})
	memo := logic.NewMemo()
	opts := core.Options{Memo: memo}
	res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	bindStores(t, e, lib, bs)
	fs := core.NewFedState(res, "CSLibrary", opts, memo)

	var queries []Query
	for _, sel := range [][]string{nil, {"title", "isbn"}, {"title", "rating"}, {"title", "shopprice"}} {
		queries = append(queries,
			Query{Class: "Item", Select: sel},
			Query{Class: "Proceedings", Where: expr.MustParse("rating >= 1"), Select: sel})
	}

	writes := []struct {
		what  string
		write func() error
	}{
		{"shipped update", func() error {
			g := findByISBN(t, e, "caise96")
			return ship(e, updateOf("Proceedings", g.ID, map[string]object.Value{"rating": object.Int(9), "title": object.Str("renamed")}))
		}},
		{"shipped delete", func() error {
			return ship(e, deleteOf("Proceedings", findByISBN(t, e, "wkshp1").ID))
		}},
		{"attach", func() error {
			pair, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1UnivArchive(), tm.Figure1ArchiveIntegration(), lib, arch, 1, fs.Opts)
			if err != nil {
				return err
			}
			return e.Rebind(func() (changed, removed []string, err error) {
				changed, err = fs.AttachPair(pair, "UnivArchive", "CSLibrary")
				return changed, nil, err
			})
		}},
		{"detach", func() error {
			return e.Rebind(func() (changed, removed []string, err error) {
				return fs.DetachMember("UnivArchive")
			})
		}},
	}

	// run serves every query, checks it against the reference scan and
	// returns the rows with a deep copy of them.
	run := func(when string) (held, copied [][]Row) {
		for _, q := range queries {
			rows, _, err := e.Run(q)
			if err != nil {
				t.Fatalf("%s: %s %v: %v", when, q.Class, q.Select, err)
			}
			ref, _, err := e.runReference(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, ref) {
				t.Errorf("%s: %s %v: served rows differ from the reference scan's:\nserved:    %v\nreference: %v", when, q.Class, q.Select, rows, ref)
			}
			cp := make([]Row, len(rows))
			for i, r := range rows {
				cp[i] = maps.Clone(r)
			}
			held, copied = append(held, rows), append(copied, cp)
		}
		return held, copied
	}

	held, before := run("initially")
	for _, w := range writes {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.what, err)
		}
		if !reflect.DeepEqual(held, before) {
			t.Errorf("%s changed rows returned before it", w.what)
		}
		var after [][]Row
		held, after = run("after " + w.what)
		if reflect.DeepEqual(after, before) {
			t.Errorf("%s changed no served row: the test does not exercise it", w.what)
		}
		before = after
	}
}

// BenchmarkRunReturnsRows serves a warm residual query (no index
// narrows it) that returns a quarter of planMissEngine's 4 000 Items:
// with each object's projection memoised, a returned row allocates
// nothing (run with -benchmem).
func BenchmarkRunReturnsRows(b *testing.B) {
	e := planMissEngine(b)
	q := Query{Class: "Item", Where: expr.MustParse("shopprice < 40 or title = isbn"), Select: []string{"title", "isbn", "shopprice"}}
	rows, st, err := e.Run(q)
	if err != nil {
		b.Fatal(err)
	}
	if st.IndexHits != 0 || len(rows) < planMissItems/5 {
		b.Fatalf("%v: want a residual scan returning about %d rows, got %d rows, %+v", q.Where, planMissItems/4, len(rows), st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows/op")
}

// BenchmarkResidualScan serves the warm residual `shopprice < libprice +
// 4` (no index narrows it) over planMissEngine's 4 000 Items: two
// attribute reads per candidate, each a slot index (run with -benchmem
// for the per-op allocations; ns/candidate is the residual's cost).
func BenchmarkResidualScan(b *testing.B) {
	e := planMissEngine(b)
	q := Query{Class: "Item", Where: expr.MustParse("shopprice < libprice + 4")}
	_, st, err := e.Run(q)
	if err != nil {
		b.Fatal(err)
	}
	if st.IndexHits != 0 || st.Scanned < planMissItems {
		b.Fatalf("%v: want a residual scan over every Item, got %+v", q.Where, st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.Scanned), "ns/candidate")
}
