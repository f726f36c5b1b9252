package logic

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"interopdb/internal/expr"
)

// The derivation and validation passes of the integration pipeline ask
// the same entailment and satisfiability questions over and over: every
// class pair re-checks the same objective constraints, every similarity
// rule re-derives against the same target constraint set, and the §5.2.1
// necessary-condition checks share premises across property pairs. The
// memo layer answers repeated queries from a concurrency-safe cache
// keyed on the structural fingerprint of the canonicalized query (a
// single tree walk — it replaced the per-call String() rendering the
// cache originally keyed on), so a Checker can be shared freely across
// the worker pool that fans those checks out.
//
// Canonicalization exploits two algebraic facts about the fragment:
// conjunction is commutative and idempotent, so premise lists are sorted
// (by fingerprint) and deduplicated before keying. Verdicts depend only
// on the formulas and the Checker's configuration (Types, MaxBranches),
// both of which are fixed for the lifetime of a Checker, so cached
// verdicts never go stale. Fingerprints are hashes, so a stored entry
// keeps its formulas and every hit is re-verified with expr.Equal: a
// (vanishingly unlikely) collision recomputes instead of answering
// wrong.

// CacheStats reports the effectiveness of a Checker's memo layer.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int64
	// Collisions counts lookups whose fingerprint matched a stored entry
	// that failed expr.Equal verification (recomputed, not cached).
	Collisions int64
}

// HitRate returns the fraction of queries answered from cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the stats.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d entries=%d hit-rate=%.1f%%",
		s.Hits, s.Misses, s.Entries, 100*s.HitRate())
}

// memoKey is the fixed-size cache key: query kind tag plus the combined
// fingerprint of the canonical premise sequence and the conclusion.
type memoKey struct {
	kind   byte
	hi, lo uint64
}

// memoEntry stores a verdict together with the exact query it answers,
// so fingerprint hits can be verified structurally. An entry is filed
// before its verdict is computed: done is closed once verdict is set
// (nil for an entry filed complete, by Import).
type memoEntry struct {
	premises   []expr.Node // canonical order, as solved
	conclusion expr.Node   // nil for satisfiability queries
	verdict    Verdict
	done       chan struct{}
}

// wait returns the entry's verdict once it is computed.
func (e *memoEntry) wait() Verdict {
	if e.done != nil {
		<-e.done
	}
	return e.verdict
}

// ready reports whether the entry's verdict is computed.
func (e *memoEntry) ready() bool {
	if e.done == nil {
		return true
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// matches reports whether the entry answers exactly this query.
func (e *memoEntry) matches(premises []expr.Node, conclusion expr.Node) bool {
	if len(e.premises) != len(premises) {
		return false
	}
	for i := range premises {
		if !expr.Equal(e.premises[i], premises[i]) {
			return false
		}
	}
	return expr.Equal(e.conclusion, conclusion)
}

// memoTable is the concurrency-safe verdict cache. The zero value is
// ready to use, so Checker composite literals need no constructor.
type memoTable struct {
	m          sync.Map // memoKey → *memoEntry
	hits       atomic.Int64
	misses     atomic.Int64
	entries    atomic.Int64
	collisions atomic.Int64
}

// get answers a query from cache, computing and storing on miss. The
// first caller of a key files an in-flight entry and computes; a
// concurrent duplicate finds that entry, waits for its verdict and
// counts as a hit, so a query is computed once however many goroutines
// ask it together. Waiting cannot deadlock: compute never re-enters the
// memo (the solver's satisfiability and entailment work calls satForm
// directly). A fingerprint collision (stored entry fails structural
// verification) recomputes without caching, so collisions cost time,
// never correctness.
func (t *memoTable) get(key memoKey, premises []expr.Node, conclusion expr.Node, compute func() Verdict) Verdict {
	v, ok := t.m.Load(key)
	if !ok {
		e := &memoEntry{premises: premises, conclusion: conclusion, done: make(chan struct{})}
		var loaded bool
		if v, loaded = t.m.LoadOrStore(key, e); !loaded {
			t.misses.Add(1)
			t.entries.Add(1)
			defer close(e.done)
			e.verdict = compute()
			return e.verdict
		}
	}
	e := v.(*memoEntry)
	if e.matches(premises, conclusion) {
		t.hits.Add(1)
		return e.wait()
	}
	t.collisions.Add(1)
	return compute()
}

func (t *memoTable) stats() CacheStats {
	return CacheStats{
		Hits:       t.hits.Load(),
		Misses:     t.misses.Load(),
		Entries:    t.entries.Load(),
		Collisions: t.collisions.Load(),
	}
}

// Memo is a standalone, shareable verdict cache. A Checker whose Memo
// field points at one answers queries from (and contributes to) the
// shared table instead of its private one, so reasoning work done by one
// pipeline run — e.g. the pair integration an earlier federation Attach
// performed — is reused by later runs. Verdicts depend on the formulas
// and the attribute typing, so a Memo must only be shared between
// Checkers whose Types maps agree on every common path (the federation
// layer verifies this before sharing). The zero value is ready to use.
type Memo struct {
	t memoTable
}

// NewMemo returns a fresh shareable verdict cache.
func NewMemo() *Memo { return &Memo{} }

// Stats reports the shared table's cache effectiveness.
func (m *Memo) Stats() CacheStats {
	if m == nil {
		return CacheStats{}
	}
	return m.t.stats()
}

// table returns the verdict cache this Checker consults: the shared Memo
// when one is attached, the private table otherwise.
func (c *Checker) table() *memoTable {
	if c.Memo != nil {
		return &c.Memo.t
	}
	return &c.memo
}

// CacheStats reports the Checker's cache effectiveness (the shared
// Memo's stats when one is attached). Safe on a nil Checker (returns
// zeros).
func (c *Checker) CacheStats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.table().stats()
}

// memoized routes a query through the cache unless memoization is
// disabled or the Checker is nil (nil Checkers are legal everywhere
// else, so they are here too). canon must be the canonicalized premise
// list with its fingerprints (see canonicalize); the key is only
// assembled when the cache is actually consulted.
func (c *Checker) memoized(kind byte, canon []expr.Node, fps []expr.FP, conclusion expr.Node, compute func() Verdict) Verdict {
	if c == nil || c.NoMemo {
		return compute()
	}
	return c.table().get(cacheKey(kind, fps, conclusion), canon, conclusion, compute)
}

// canonicalize returns the formulas in canonical order — sorted by
// structural fingerprint, duplicates dropped (conjunction is commutative
// and idempotent) — together with the fingerprints. The solver consumes
// the canonical order and the cache keys on it, so a verdict is a
// function of the formula *set*: premise reorderings cannot yield
// different verdicts at the DNF branch-budget boundary, which would
// otherwise let a cached answer disagree with a fresh computation of the
// "same" query.
func canonicalize(ns []expr.Node) ([]expr.Node, []expr.FP) {
	type pair struct {
		fp expr.FP
		n  expr.Node
	}
	ps := make([]pair, len(ns))
	for i, n := range ns {
		ps[i] = pair{expr.Fingerprint(n), n}
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].fp.Less(ps[j].fp) })
	outN := make([]expr.Node, 0, len(ps))
	outF := make([]expr.FP, 0, len(ps))
	for _, p := range ps {
		// Equal fingerprints from structurally distinct nodes would be a
		// hash collision; keep both (sound — conjunction is idempotent
		// only over genuinely equal conjuncts).
		if len(outF) > 0 && p.fp == outF[len(outF)-1] && expr.Equal(p.n, outN[len(outN)-1]) {
			continue
		}
		outN = append(outN, p.n)
		outF = append(outF, p.fp)
	}
	return outN, outF
}

// cacheKey assembles the fixed-size cache key by folding the query kind
// tag, the canonical premise fingerprints in order, and (for entailment)
// the conclusion's fingerprint, through expr's shared mixer.
func cacheKey(kind byte, fps []expr.FP, conclusion expr.Node) memoKey {
	fold := expr.NewFPFold()
	for _, fp := range fps {
		fold.Add(fp)
	}
	if conclusion != nil {
		fold.Tag(1)
		fold.Add(expr.Fingerprint(conclusion))
	}
	sum := fold.Sum()
	return memoKey{kind: kind, hi: sum.Hi, lo: sum.Lo}
}
