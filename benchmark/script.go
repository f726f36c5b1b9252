package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// Everything the program receives is generated here from --seed: the
// loaded data, the statements and the per-client op scripts. The same
// seed gives byte-identical inputs (the echoed script_hash pins it); the program
// never sees the seed itself, except NewFederation's own seed argument
// on federate-attach.

const (
	tenantName = "figure1"
	bookseller = "Bookseller"
)

// Bookseller publisher OIDs in the figure1 fixture's insertion order.
var publisherOIDs = map[string]object.OID{"IEEE": 1, "ACM": 2, "Springer": 3}

type opKind uint8

const (
	opExec     opKind = iota // Prepared.Exec of hot-set statement stmt
	opQuery                  // ad-hoc Client.Query of text
	opInsert                 // single-op Tx, accepted
	opUpdate                 // single-op Tx on a preloaded object, accepted
	opDelete                 // single-op Tx on a preloaded object, accepted
	opDupKey                 // insert repeating a hot key: must be rejected
	opBadPrice               // insert with libprice > shopprice: must be rejected
	opScan                   // in-process RunContext of shape stmt
)

func (k opKind) isWrite() bool  { return k >= opInsert && k <= opBadPrice }
func (k opKind) rejected() bool { return k == opDupKey || k == opBadPrice }

// op is one scripted operation.
type op struct {
	kind opKind
	stmt int           // opExec, opScan
	text string        // opQuery
	mut  view.Mutation // writes; update/delete IDs are resolved at set-up from key
	key  string        // the isbn a write concerns
}

// statement is one prepared (or pre-parsed) query shape.
type statement struct {
	text string
	// kind says why the shape is in the set: "point", "range", "pruned",
	// "mid" on the wire workloads; "broad", "dropped", "pruned" on
	// scan-read.
	kind string
}

// wireInputs is the generated input of a wire workload.
type wireInputs struct {
	load    []view.Mutation // bulk load, in order
	keys    []string        // isbn of load[i]
	hot     []statement
	scripts [][]op
	hash    string
}

func price(cents int) object.Real { return object.Real(float64(cents) / 100) }

// genLoad generates n bookseller objects, a quarter of them Proceedings
// (so the constraint phase has an extent worth its cost gate), all
// satisfying the Figure 1 constraints.
func genLoad(rng *rand.Rand, n int) (muts []view.Mutation, keys []string, shop []int) {
	pubs := []string{"IEEE", "ACM", "Springer"}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k-%06d", i)
		sc := 2000 + rng.Intn(8000)
		lc := sc - rng.Intn(1000)
		pub := pubs[rng.Intn(len(pubs))]
		attrs := map[string]object.Value{
			"title":     object.Str("Title " + key),
			"isbn":      object.Str(key),
			"publisher": object.Ref{DB: bookseller, OID: publisherOIDs[pub]},
			"shopprice": price(sc),
			"libprice":  price(lc),
		}
		class := "Item"
		if rng.Intn(4) == 0 {
			class = "Proceedings"
			refereed := pub == "IEEE" || rng.Intn(2) == 0
			rating := 1 + rng.Intn(10)
			switch {
			case refereed:
				rating = 7 + rng.Intn(4)
			case pub == "ACM":
				rating = 6 + rng.Intn(5)
			}
			attrs["ref?"] = object.Bool(refereed)
			attrs["rating"] = object.Int(int64(rating))
		}
		muts = append(muts, view.Mutation{Kind: view.MutInsert, Class: class, Attrs: attrs})
		keys = append(keys, key)
		shop = append(shop, sc)
	}
	return muts, keys, shop
}

// genHotSet builds the prepared-statement set: five eighths isbn
// equality, the rest split between one-cent shopprice ranges around a
// loaded price and predicates the Proceedings constraints refute.
func genHotSet(rng *rand.Rand, n int, keys []string, shop []int) (stmts []statement, hotKeys map[string]bool) {
	hotKeys = map[string]bool{}
	points := n * 5 / 8
	ranges := (n - points) / 2
	perm := rng.Perm(len(keys))
	for i := 0; i < points; i++ {
		k := keys[perm[i]]
		hotKeys[k] = true
		stmts = append(stmts, statement{kind: "point",
			text: fmt.Sprintf("select title, shopprice from Item where isbn = '%s'", k)})
	}
	for i := 0; i < ranges; i++ {
		c := shop[perm[points+i]]
		// The anchoring item is hot too, so no write moves the range's
		// own row.
		hotKeys[keys[perm[points+i]]] = true
		stmts = append(stmts, statement{kind: "range",
			text: fmt.Sprintf("select title from Item where shopprice >= %.3f and shopprice <= %.3f",
				float64(c)/100-0.004, float64(c)/100+0.004)})
	}
	for i := 0; len(stmts) < n; i++ {
		var text string
		if i%2 == 0 {
			text = fmt.Sprintf("select title from Proceedings where publisher.name = 'IEEE' and ref? = false and rating >= %d", 1+i/2)
		} else {
			text = fmt.Sprintf("select title from Proceedings where ref? = true and rating < %d", 7-i/2%6)
			if i/2 >= 6 {
				text += fmt.Sprintf(" and shopprice < %d", 20+i)
			}
		}
		stmts = append(stmts, statement{kind: "pruned", text: text})
	}
	return stmts, hotKeys
}

// genPointRead generates wire-point-read: 80 % Prepared.Exec over the
// hot set, 20 % ad-hoc query text with an isbn drawn uniformly from all
// loaded keys; half of those carry a second, always-true conjunct with
// a fresh literal, so distinct shapes outrun the plan cache.
func genPointRead(seed int64, sc scale, clients, totalOps int) *wireInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &wireInputs{}
	var shop []int
	in.load, in.keys, shop = genLoad(rng, sc.PointItems)
	in.hot, _ = genHotSet(rng, sc.HotSet, in.keys, shop)
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		n := totalOps / clients
		ops := make([]op, n)
		for i := range ops {
			if crng.Intn(5) != 0 {
				ops[i] = op{kind: opExec, stmt: crng.Intn(len(in.hot))}
				continue
			}
			k := in.keys[crng.Intn(len(in.keys))]
			text := fmt.Sprintf("select title from Item where isbn = '%s'", k)
			if crng.Intn(2) == 0 {
				text += fmt.Sprintf(" and shopprice > %d.%03d", crng.Intn(10), crng.Intn(1000))
			}
			ops[i] = op{kind: opQuery, text: text}
		}
		in.scripts = append(in.scripts, ops)
	}
	in.hash = hashWire(wlPointRead, seed, sc, in)
	return in
}

// genMixed generates wire-mixed-durable: 95 % reads over the hot set
// plus two mid-selectivity ranges, 5 % single-op Tx — of those 60 %
// inserts, 20 % updates, 10 % deletes and 10 % writes that must be
// rejected. Updates and deletes each take a fresh preloaded object
// outside the hot set, from the client's own share, so clients never
// contend on a key and the point reads keep answering one row.
func genMixed(seed int64, sc scale, clients, totalOps int) *wireInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &wireInputs{}
	var shop []int
	in.load, in.keys, shop = genLoad(rng, sc.MixedItems)
	var hotKeys map[string]bool
	in.hot, hotKeys = genHotSet(rng, sc.HotSet, in.keys, shop)
	in.hot = append(in.hot,
		statement{kind: "mid", text: "select title from Item where shopprice >= 40 and shopprice < 41"},
		statement{kind: "mid", text: "select title, libprice from Item where shopprice >= 60 and shopprice < 62"})
	var hotList []string
	for k := range hotKeys {
		hotList = append(hotList, k)
	}
	sort.Strings(hotList)
	pools := make([][]int, clients)
	for i, k := range in.keys {
		if !hotKeys[k] {
			pools[i%clients] = append(pools[i%clients], i)
		}
	}
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		n := totalOps / clients
		ops := make([]op, n)
		inserted := 0
		for i := range ops {
			if crng.Intn(20) != 0 {
				ops[i] = op{kind: opExec, stmt: crng.Intn(len(in.hot))}
				continue
			}
			kind := opInsert
			switch r := crng.Intn(20); {
			case r < 12:
			case r < 16:
				kind = opUpdate
			case r < 18:
				kind = opDelete
			case r < 19:
				kind = opDupKey
			default:
				kind = opBadPrice
			}
			if (kind == opUpdate || kind == opDelete) && len(pools[c]) == 0 {
				kind = opInsert
			}
			o := op{kind: kind}
			switch kind {
			case opInsert, opDupKey, opBadPrice:
				o.key = fmt.Sprintf("w%d-%06d", c, inserted)
				inserted++
				shopC := 2000 + crng.Intn(8000)
				libC := shopC - crng.Intn(1000)
				if kind == opDupKey {
					o.key = hotList[crng.Intn(len(hotList))]
				}
				if kind == opBadPrice {
					libC = shopC + 1 + crng.Intn(1000)
				}
				o.mut = view.Mutation{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
					"title":     object.Str("Written " + o.key),
					"isbn":      object.Str(o.key),
					"publisher": object.Ref{DB: bookseller, OID: publisherOIDs["ACM"]},
					"shopprice": price(shopC),
					"libprice":  price(libC),
				}}
			case opUpdate, opDelete:
				j := crng.Intn(len(pools[c]))
				idx := pools[c][j]
				pools[c] = append(pools[c][:j], pools[c][j+1:]...)
				o.key = in.keys[idx]
				if kind == opDelete {
					o.mut = view.Mutation{Kind: view.MutDelete, Class: "Item"}
				} else {
					// Raising shopprice keeps libprice <= shopprice.
					o.mut = view.Mutation{Kind: view.MutUpdate, Class: "Item", Attrs: map[string]object.Value{
						"shopprice": price(shop[idx] + 10000),
					}}
				}
			}
			ops[i] = o
		}
		in.scripts = append(in.scripts, ops)
	}
	in.hash = hashWire(wlMixed, seed, sc, in)
	return in
}

// scanInputs is the generated input of scan-read.
type scanInputs struct {
	shapes  []statement
	scripts [][]op
	hash    string
}

// genScan generates scan-read's 64 shapes and scripts: about 70 % broad
// or non-sargable scans, 20 % queries with a conjunct the global
// constraints imply, 10 % the constraints refute (B1's three kinds, at
// a fixed share). The shapes are the same for every seed — the seed
// draws the data and the order of the ops — and within a class they are
// built so the class median lands inside a band of like-cost shapes,
// not on the edge between two: a fifth of the broad ops are cheap
// index-served set probes, two fifths mid-cost price ranges (the median
// falls here), two fifths full scans; the optimised ops are one third
// refuted outright and two thirds one dropped-conjunct template.
func genScan(seed int64, sc scale, clients, totalOps int) *scanInputs {
	in := &scanInputs{}
	pubs := []string{"IEEE", "ACM", "Springer", "Addison-Wesley", "North-Holland", "Elsevier", "MIT Press", "Morgan Kaufmann", "Wiley"}
	add := func(kind, format string, args ...any) {
		in.shapes = append(in.shapes, statement{kind: kind, text: fmt.Sprintf(format, args...)})
	}
	for i := 0; i < 9; i++ {
		add("broad", "select title from Proceedings where rating in {%d, %d} and shopprice > 0", 1+i, 2+i)
	}
	for i := 0; i < 18; i++ {
		add("broad", "select title from Item where shopprice < %.2f", 48+0.25*float64(i))
	}
	for i := 0; i < 9; i++ {
		add("broad", "select title, isbn from Item where shopprice < libprice + %.2f", 4+0.25*float64(i))
		add("broad", "select title from Proceedings where publisher.name = '%s' and shopprice < 95", pubs[i])
	}
	for i := 0; i < 13; i++ {
		add("dropped", "select title from Proceedings where (publisher.name = 'IEEE' implies ref? = true) and rating >= 8 and shopprice < %.1f", 90+0.5*float64(i))
	}
	for i := 0; i < 6; i++ {
		add("pruned", "select title from Proceedings where publisher.name = 'IEEE' and ref? = false and rating >= %d", 1+i)
	}
	byKind := map[string][]int{}
	for i, s := range in.shapes {
		byKind[s.kind] = append(byKind[s.kind], i)
	}
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		ops := make([]op, totalOps/clients)
		for i := range ops {
			kind := "broad"
			switch r := crng.Intn(10); {
			case r == 0:
				kind = "pruned"
			case r <= 2:
				kind = "dropped"
			}
			ids := byKind[kind]
			ops[i] = op{kind: opScan, stmt: ids[crng.Intn(len(ids))]}
		}
		in.scripts = append(in.scripts, ops)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d books=%d\n", wlScanRead, seed, sc.ScanBooks)
	for _, s := range in.shapes {
		fmt.Fprintf(h, "%s|%s\n", s.kind, s.text)
	}
	hashScripts(h, in.scripts)
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in
}

// hashFederate covers federate-attach, whose only inputs are the
// fixture scale, the iteration count and the federation seed.
func hashFederate(seed int64, sc scale, iterations int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d scale=%d iterations=%d\n", wlFederate, seed, sc.FedScale, iterations)
	return hex.EncodeToString(h.Sum(nil))
}

func hashWire(name string, seed int64, sc scale, in *wireInputs) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d batch=%d\n", name, seed, sc.LoadBatch)
	for _, m := range in.load {
		hashMutation(h, m)
	}
	for _, s := range in.hot {
		fmt.Fprintf(h, "%s|%s\n", s.kind, s.text)
	}
	hashScripts(h, in.scripts)
	return hex.EncodeToString(h.Sum(nil))
}

func hashScripts(h hash.Hash, scripts [][]op) {
	for c, ops := range scripts {
		fmt.Fprintf(h, "client %d: %d ops\n", c, len(ops))
		for _, o := range ops {
			fmt.Fprintf(h, "%d %d %s %s ", o.kind, o.stmt, o.text, o.key)
			if o.kind.isWrite() {
				hashMutation(h, o.mut)
			}
			h.Write([]byte{'\n'})
		}
	}
}

// hashMutation writes a mutation canonically (attributes sorted; the
// wire codec follows map order and cannot be hashed).
func hashMutation(h hash.Hash, m view.Mutation) {
	names := make([]string, 0, len(m.Attrs))
	for k := range m.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "%s %s", m.Kind, m.Class)
	for _, k := range names {
		fmt.Fprintf(h, " %s=%s", k, m.Attrs[k])
	}
	h.Write([]byte{'\n'})
}
