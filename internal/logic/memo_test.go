package logic

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

func ratingChecker() *Checker {
	return &Checker{Types: map[string]object.Type{"rating": object.RangeType{Lo: 1, Hi: 10}}}
}

func TestMemoHitsAndMisses(t *testing.T) {
	c := ratingChecker()
	prem := []expr.Node{expr.MustParse("ref? = true"), expr.MustParse("ref? = true implies rating >= 7")}
	conc := expr.MustParse("rating >= 4")

	if got := c.Entails(prem, conc); got != Yes {
		t.Fatalf("entailment: got %v", got)
	}
	st := c.CacheStats()
	if st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first query: %+v", st)
	}
	for i := 0; i < 5; i++ {
		if got := c.Entails(prem, conc); got != Yes {
			t.Fatalf("cached entailment: got %v", got)
		}
	}
	st = c.CacheStats()
	if st.Hits != 5 || st.Misses != 1 {
		t.Fatalf("after repeats: %+v", st)
	}
	if st.HitRate() < 0.8 {
		t.Fatalf("hit rate %v too low", st.HitRate())
	}
}

func TestMemoPremiseOrderInsensitive(t *testing.T) {
	c := ratingChecker()
	a := expr.MustParse("rating >= 3")
	b := expr.MustParse("rating <= 8")
	conc := expr.MustParse("rating >= 1")
	if got := c.Entails([]expr.Node{a, b}, conc); got != Yes {
		t.Fatalf("got %v", got)
	}
	// Reordered and duplicated premises must hit the same entry:
	// conjunction is commutative and idempotent.
	if got := c.Entails([]expr.Node{b, a, b}, conc); got != Yes {
		t.Fatalf("got %v", got)
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("reordered premises missed the cache: %+v", st)
	}
}

func TestMemoDistinguishesSatFromEntails(t *testing.T) {
	c := ratingChecker()
	n := expr.MustParse("rating >= 3")
	// Satisfiable({n}) and Entails({n}, nilish) must not collide even
	// though the premise list renders identically.
	if got := c.Satisfiable(n); got != Yes {
		t.Fatalf("sat: %v", got)
	}
	if got := c.Entails(nil, n); got == Yes {
		t.Fatalf("⊨ rating >= 3 from nothing should not hold, got %v", got)
	}
	st := c.CacheStats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("kind tag failed to separate queries: %+v", st)
	}
}

func TestMemoDisabled(t *testing.T) {
	c := ratingChecker()
	c.NoMemo = true
	n := expr.MustParse("rating >= 3")
	for i := 0; i < 3; i++ {
		if got := c.Satisfiable(n); got != Yes {
			t.Fatalf("sat: %v", got)
		}
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("NoMemo checker touched the cache: %+v", st)
	}
}

func TestMemoNilChecker(t *testing.T) {
	var c *Checker
	if got := c.Satisfiable(expr.MustParse("1 <= 2")); got != Yes {
		t.Fatalf("nil checker sat: %v", got)
	}
	if st := c.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("nil checker stats: %+v", st)
	}
}

// TestMemoMatchesUncached differentially pins cached verdicts against a
// memo-free checker over a grid of queries, including repeats.
func TestMemoMatchesUncached(t *testing.T) {
	memo := ratingChecker()
	plain := ratingChecker()
	plain.NoMemo = true

	var prems [][]expr.Node
	var concs []expr.Node
	for i := 1; i <= 9; i++ {
		prems = append(prems, []expr.Node{expr.MustParse(fmt.Sprintf("rating >= %d", i))})
		concs = append(concs, expr.MustParse(fmt.Sprintf("rating >= %d", 10-i)))
	}
	for round := 0; round < 2; round++ {
		for i, p := range prems {
			for j, cc := range concs {
				want := plain.Entails(p, cc)
				got := memo.Entails(p, cc)
				if got != want {
					t.Fatalf("round %d prem %d conc %d: memo %v, plain %v", round, i, j, got, want)
				}
			}
		}
	}
	st := memo.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("second round produced no hits: %+v", st)
	}
}

// TestMemoConcurrent hammers one shared checker from many goroutines;
// run under -race this is the goroutine-safety proof for the cache.
func TestMemoConcurrent(t *testing.T) {
	c := ratingChecker()
	queries := make([]expr.Node, 12)
	for i := range queries {
		queries[i] = expr.MustParse(fmt.Sprintf("rating >= %d", i%6+1))
	}
	conc := expr.MustParse("rating >= 1")
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := queries[(w+i)%len(queries)]
				if got := c.Entails([]expr.Node{q}, conc); got != Yes {
					select {
					case errs <- fmt.Sprintf("worker %d: got %v for %s", w, got, q):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	st := c.CacheStats()
	if st.Entries > int64(len(queries)) {
		t.Fatalf("more entries than distinct queries: %+v", st)
	}
	if st.Hits+st.Misses != 16*200 {
		t.Fatalf("lost queries: %+v", st)
	}
}

// TestMemoCoalescesConcurrentDuplicates pins that a query asked by
// several goroutines at once is computed once: the first files an
// in-flight entry and computes, and every duplicate that arrives
// meanwhile waits for that verdict and counts as a hit. The computation
// is held open until all seven duplicates have counted their hits, so
// every one of them overlaps it.
func TestMemoCoalescesConcurrentDuplicates(t *testing.T) {
	const askers = 8
	var tab memoTable
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() Verdict {
		computes.Add(1)
		<-release
		return Yes
	}
	key := memoKey{kind: 1, hi: 2, lo: 3}
	prem := []expr.Node{expr.MustParse("rating >= 3")}
	got := make([]Verdict, askers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tab.get(key, prem, nil, compute)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tab.hits.Load() < askers-1 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d goroutines asking one query computed it %d times, want once", askers, n)
	}
	st := tab.stats()
	if st.Misses != 1 || st.Hits != askers-1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 miss, %d hits and 1 entry", st, askers-1)
	}
	for i, v := range got {
		if v != Yes {
			t.Errorf("asker %d got %v, want Yes", i, v)
		}
	}
}
