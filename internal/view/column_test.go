package view

import (
	"fmt"
	"math"
	"testing"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// The column-kernel differential: a residual served over columns
// (column.go) must answer exactly as the reference scan — rows, row
// order and error text — whatever the extent holds.

// columnNums are the values a fuzzed row stores in a numeric attribute:
// absent (nil), null, Ints and Reals mixed, -0.0, NaN and infinity, the
// Ints around 2^53 a float64 cannot all carry, and kinds no numeric
// column accepts.
var columnNums = []object.Value{
	nil, object.Null{}, object.Int(10), object.Int(-3), object.Real(10), object.Real(10.5),
	object.Real(math.Copysign(0, -1)), object.Real(math.NaN()), object.Int(1 << 53), object.Int(1<<53 + 1),
	object.Int(1 << 62), object.Str("ten"), object.Bool(true), object.Real(math.Inf(1)), object.Int(8), object.Real(4),
}

// columnPubs are the values a fuzzed row stores as its publisher: the
// three fixture publishers, a dangling ref, and values of other kinds.
var columnPubs = []object.Value{
	nil, object.Null{}, object.Ref{DB: "Bookseller", OID: 1}, object.Ref{DB: "Bookseller", OID: 2},
	object.Ref{DB: "Bookseller", OID: 3}, object.Ref{DB: "Bookseller", OID: 999}, object.Str("IEEE"), object.Int(1),
}

// columnConjuncts are the conjuncts a fuzzed residual is built from:
// numeric kernels, dictionary kernels, conjuncts a kernel cannot take,
// and conjuncts that error on some rows. None is sargable, so a
// residual led by one scans the whole extent.
var columnConjuncts = []string{
	"shopprice < libprice + 4",
	"shopprice - libprice >= 0.5",
	"shopprice * 2 = libprice",
	"rating != 8",
	"shopprice = null",
	"null != libprice",
	"rating = shopprice",
	"shopprice = libprice",
	"shopprice > libprice",
	"self.shopprice <= self.libprice",
	"rating * rating > 4503599627370496",
	"-3 < rating - 1",
	"publisher.name = 'IEEE'",
	"publisher.name != 'ACM'",
	"publisher = null",
	"abs(publisher) = 1",
	"shopprice < 'x'",
	"length(shopprice) = 0",
	"ref? = false",
	"contains(title, 'f')",
	"publisher.name = 'IEEE' or rating > 3",
	"shopprice / 0 > 1",
	"shopprice + 9007199254740983 != 9007199254740992",
}

// columnQueries decodes 4-byte query specs: a class and conjunct-count
// byte, then up to three conjunct indexes.
func columnQueries(spec []byte) []Query {
	var out []Query
	for i := 0; i+4 <= len(spec) && len(out) < 12; i += 4 {
		var conjs []expr.Node
		for _, b := range spec[i+1 : i+2+int(spec[i]%3)] {
			conjs = append(conjs, expr.MustParse(columnConjuncts[int(b)%len(columnConjuncts)]))
		}
		class := "Proceedings"
		if spec[i]&0x80 != 0 {
			class = "Item"
		}
		out = append(out, Query{Class: class, Where: conjoinNodes(conjs), Select: []string{"title", "isbn"}})
	}
	return out
}

// insertColumnRows ships one batch of Proceedings, a row per 4 bytes:
// shopprice, libprice, publisher and rating.
func insertColumnRows(t *testing.T, e *Engine, rows []byte, tag string) {
	t.Helper()
	pick := func(pool []object.Value, b byte, attrs map[string]object.Value, attr string) {
		if v := pool[int(b)%len(pool)]; v != nil {
			attrs[attr] = v
		}
	}
	var ops []shippedOp
	for i := 0; i+4 <= len(rows) && len(ops) < 64; i += 4 {
		attrs := map[string]object.Value{
			"title": object.Str(fmt.Sprintf("f-%s%d", tag, i)), "isbn": object.Str(fmt.Sprintf("fz-%s%d", tag, i)),
			"ref?": object.Bool(rows[i+3]&0x80 != 0),
		}
		pick(columnNums, rows[i], attrs, "shopprice")
		pick(columnNums, rows[i+1], attrs, "libprice")
		pick(columnPubs, rows[i+2], attrs, "publisher")
		pick(columnNums, rows[i+3], attrs, "rating")
		ops = append(ops, shippedOp{op: Mutation{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}, oid: object.OID(len(ops) + 1), db: "fuzz-" + tag})
	}
	if len(ops) == 0 {
		return
	}
	e.mu.Lock()
	err := e.applyShipped(ops)
	e.mu.Unlock()
	if err != nil {
		t.Fatalf("applyShipped: %v", err)
	}
}

// renamePublisher renames the publisher named from to to: a write that
// republishes Publisher alone, so Proceedings keeps its class state —
// its plans and columns — while publisher.name answers differently.
func renamePublisher(t *testing.T, e *Engine, from, to string) {
	t.Helper()
	for _, g := range e.res.View.Extent("Publisher") {
		if v, ok := g.Get("name"); ok && v.Equal(object.Str(from)) {
			e.mu.Lock()
			err := e.applyShipped([]shippedOp{{op: Mutation{Kind: MutUpdate, ID: g.ID, Attrs: map[string]object.Value{"name": object.Str(to)}}, g: g}})
			e.mu.Unlock()
			if err != nil {
				t.Fatalf("rename %s: %v", from, err)
			}
			return
		}
	}
	t.Fatalf("no publisher named %s", from)
}

// FuzzColumnResidual is the column-kernel differential. rows seeds a
// batch of Proceedings (insertColumnRows) and queries a list of
// residuals (columnQueries). Each residual runs against the reference
// scan before and after a publisher is renamed — Proceedings' class
// state, with its plans and columns, carries over, so a dictionary
// kernel must re-evaluate its verdicts in the new snapshot — and after
// a second batch republishes Proceedings with fresh columns.
func FuzzColumnResidual(f *testing.F) {
	for _, seed := range []struct{ rows, queries []byte }{
		// Clean prices and ratings with nulls and absents: numeric
		// kernels, null = / != and the representative verdicts.
		{[]byte{2, 15, 2, 14, 4, 2, 3, 1, 5, 4, 4, 2, 1, 2, 2, 3, 2, 0, 3, 14, 14, 15, 2, 1, 2, 2, 4, 14, 3, 3, 5, 0},
			[]byte{0, 3, 0, 0, 1, 12, 0, 0, 2, 13, 3, 5, 1, 4, 14, 0, 0x80, 0, 0, 0, 1, 9, 11, 0, 0, 5, 0, 0}},
		// Ints around 2^53: the numeric column must refuse them.
		{[]byte{9, 8, 2, 2, 8, 8, 3, 14, 2, 2, 4, 2, 9, 8, 2, 14, 3, 2, 2, 14, 2, 9, 3, 2},
			[]byte{0, 7, 0, 0, 0, 8, 0, 0, 1, 12, 7, 0, 0, 10, 0, 0}},
		// Mixed kinds, NaN, -0.0 and errors in representative and row
		// evaluations.
		{[]byte{11, 2, 6, 1, 7, 7, 7, 7, 6, 2, 2, 12, 13, 6, 5, 3, 2, 2, 2, 14, 0, 0, 3, 1, 5, 4, 4, 8, 15, 3, 2, 2},
			[]byte{0, 15, 0, 0, 1, 12, 16, 0, 2, 13, 17, 20, 1, 18, 19, 0, 0, 21, 0, 0, 0x82, 9, 2, 1, 1, 6, 3, 0}},
		// A clean Int column whose sum with a constant reaches 2^53 - 1
		// (shopprice 8) and 2^53 + 1 (shopprice 10): float64 rounds the
		// second to 2^53, so the kernel must leave it undecided.
		{[]byte{2, 4, 2, 14, 14, 4, 3, 14, 2, 5, 4, 2}, []byte{0, 22, 0, 0, 0x80, 22, 0, 0}},
		// Many rows per publisher: the dictionary column serves, and the
		// rename must flip its verdicts.
		{[]byte{2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14,
			2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14, 2, 15, 2, 14, 4, 2, 3, 14},
			[]byte{0, 12, 0, 0, 0, 13, 0, 0, 1, 12, 3, 0, 0x81, 13, 14, 0}},
	} {
		f.Add(seed.rows, seed.queries)
	}
	f.Fuzz(func(t *testing.T, rows, queries []byte) {
		e := scaledEngine(t, 2)
		insertColumnRows(t, e, rows, "a")
		qs := columnQueries(queries)
		for _, q := range qs {
			runVsReference(t, e, q)
		}
		renamePublisher(t, e, "IEEE", "ACM")
		for _, q := range qs {
			runVsReference(t, e, q)
		}
		insertColumnRows(t, e, rows[len(rows)/2:], "b")
		for _, q := range qs {
			runVsReference(t, e, q)
		}
	})
}

// TestColumnKernelsServe pins that the fuzz's residual families reach
// the kernels: on the fixture, a numeric comparison, a dictionary
// conjunct and a comparison after it become kernels, and a conjunct no
// kernel takes ends the prefix and is kept as the rest.
func TestColumnKernelsServe(t *testing.T) {
	e := scaledEngine(t, 50)
	for _, c := range []struct {
		where   string
		kernels int
		rest    bool
	}{
		{"shopprice < libprice + 4", 1, false},
		{"publisher.name = 'IEEE' and shopprice < libprice + 4", 2, false},
		{"shopprice != 30 and contains(title, 'VLDB') and rating >= 7", 1, true},
		{"contains(title, 'VLDB') and shopprice != 30", 0, true},
	} {
		q := Query{Class: "Proceedings", Where: expr.MustParse(c.where)}
		runVsReference(t, e, q)
		s := e.snap.Load()
		p, _, err := e.planFor(bg, s, s.class(q.Class), q.Where, e.UseConstraints)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if p.cols != nil {
			got = len(p.cols.kernels)
		}
		if got != c.kernels || (c.kernels > 0 && (p.cols.rest != nil) != c.rest) {
			t.Errorf("%s: %d kernels (want %d), rest kept %v (want %v)", c.where, got, c.kernels, p.cols != nil && p.cols.rest != nil, c.rest)
		}
	}
}

// TestColumnsOnlyForScans pins when columns are built and how long they
// live: point reads, index-served plans, Validate and Ship file no
// column value; a write that republishes another class leaves a class's
// columns in place; and a held snapshot keeps serving from its own.
func TestColumnsOnlyForScans(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 50)
	filed := func() int64 { return e.counters.colFiled.Load() }

	for _, q := range []Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < libprice + 4")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 30")},
	} {
		if _, st, err := e.Run(q); err != nil {
			t.Fatal(err)
		} else if st.IndexHits == 0 {
			t.Fatalf("%v: want an index-served plan, got %+v", q.Where, st)
		}
	}
	doomed := insertOf("Proceedings", map[string]object.Value{
		"title": object.Str("x"), "isbn": object.Str("cols-doomed"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1},
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(8),
	})
	if rejs := rejectionsOf(t, e, doomed); len(rejs) == 0 {
		t.Fatal("doomed insert validated clean")
	}
	if err := ship(e, updateOf("Item", findByISBN(t, e, "vldb96").ID, map[string]object.Value{"shopprice": object.Real(80)})); err != nil {
		t.Fatal(err)
	}
	if n := filed(); n != 0 {
		t.Fatalf("point reads, index-served plans, Validate and Ship filed %d column values, want 0", n)
	}

	scan := Query{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and shopprice < libprice + 100")}
	before, _, err := e.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	built := filed()
	if built == 0 {
		t.Fatalf("%v filed no column value", scan.Where)
	}
	held := e.snap.Load()
	heldCols := held.class("Proceedings")

	// Renaming a publisher republishes Publisher alone: Proceedings keeps
	// its columns, and the rerun answers from them in the new snapshot.
	renamePublisher(t, e, "IEEE", "Renamed IEEE")
	after, _, err := e.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	if e.snap.Load().class("Proceedings") != heldCols {
		t.Fatal("renaming a publisher republished Proceedings")
	}
	if n := filed(); n != built {
		t.Errorf("a rerun after republishing Publisher filed %d column values, want 0", n-built)
	}
	if len(before) == 0 || len(after) != 0 {
		t.Errorf("%v answered %d rows before renaming IEEE and %d after, want some and none", scan.Where, len(before), len(after))
	}
	runVsReference(t, e, scan)

	// A write to Proceedings republishes it: the next scan builds fresh
	// columns, and the held snapshot still answers from its own.
	if err := ship(e, insertOf("Proceedings", map[string]object.Value{
		"title": object.Str("y"), "isbn": object.Str("cols-new"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2},
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(8),
	})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(scan); err != nil {
		t.Fatal(err)
	}
	if filed() == built {
		t.Error("a scan over a republished Proceedings filed no column value")
	}
	rebuilt := filed()
	rows, _, err := e.runSnapshot(bg, held, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(before) {
		t.Errorf("the held snapshot answered %d rows, want its own %d", len(rows), len(before))
	}
	if filed() != rebuilt {
		t.Errorf("the held snapshot rebuilt %d column values, want 0: it keeps its own", filed()-rebuilt)
	}
}

// BenchmarkColumnResidual serves the warm residual `publisher.name =
// 'IEEE' and shopprice < 95` over planMissEngine's 2 000 Proceedings: a
// dictionary kernel and a numeric kernel (run with -benchmem;
// ns/candidate is the residual's cost).
func BenchmarkColumnResidual(b *testing.B) {
	e := planMissEngine(b)
	q := Query{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and shopprice < 95")}
	_, st, err := e.Run(q)
	if err != nil {
		b.Fatal(err)
	}
	s := e.snap.Load()
	if p, _, _ := e.planFor(bg, s, s.class(q.Class), q.Where, e.UseConstraints); st.IndexHits != 0 || p.cols == nil || len(p.cols.kernels) != 2 {
		b.Fatalf("%v: want two kernels over every Proceedings, got %+v", q.Where, st)
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
