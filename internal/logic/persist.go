package logic

import (
	"encoding/json"
	"fmt"
	"sort"

	"interopdb/internal/expr"
)

// Memo persistence (DESIGN.md §13). The entailment memo is the costly
// part of constraint integration: re-deriving a federation from its
// schemas is cheap once every solver query is answered from cache. A
// checkpoint therefore serializes the memo's entries — the exact
// formulas, through expr's structural codec, never a textual render —
// and a warm start imports them before re-running derivation, turning
// every solver query it would repeat into a memo hit.
//
// Import recomputes each entry's cache key from the decoded formulas
// (canonicalize + cacheKey) instead of trusting persisted hashes, so a
// change to the fingerprint function between versions degrades a stale
// snapshot to misses instead of serving wrong verdicts under colliding
// keys.

// memoExportEntry is one persisted verdict.
type memoExportEntry struct {
	Kind       byte              `json:"k"`
	Premises   []json.RawMessage `json:"p,omitempty"`
	Conclusion json.RawMessage   `json:"c,omitempty"`
	Verdict    int               `json:"v"`
}

// Export serializes the memo's entries deterministically (sorted by
// kind, then key hash): two exports of the same logical cache are
// byte-identical regardless of insertion order.
func (m *Memo) Export() ([]byte, error) {
	if m == nil {
		return json.Marshal([]memoExportEntry{})
	}
	type keyed struct {
		key memoKey
		e   *memoEntry
	}
	var all []keyed
	m.t.m.Range(func(k, v any) bool {
		if e := v.(*memoEntry); e.ready() { // an in-flight query has no verdict yet
			all = append(all, keyed{k.(memoKey), e})
		}
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].key, all[j].key
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.hi != b.hi {
			return a.hi < b.hi
		}
		return a.lo < b.lo
	})
	out := make([]memoExportEntry, 0, len(all))
	for _, kv := range all {
		ee := memoExportEntry{Kind: kv.key.kind, Verdict: int(kv.e.verdict)}
		for _, p := range kv.e.premises {
			b, err := expr.EncodeNode(p)
			if err != nil {
				return nil, fmt.Errorf("memo export: %w", err)
			}
			ee.Premises = append(ee.Premises, b)
		}
		if kv.e.conclusion != nil {
			b, err := expr.EncodeNode(kv.e.conclusion)
			if err != nil {
				return nil, fmt.Errorf("memo export: %w", err)
			}
			ee.Conclusion = b
		}
		out = append(out, ee)
	}
	return json.Marshal(out)
}

// Import loads exported entries into the memo, returning how many were
// installed. Existing entries win ties (they were computed in this
// process). Verdicts outside the known range reject the whole import —
// a corrupt snapshot must not seed the solver with garbage.
func (m *Memo) Import(data []byte) (int, error) {
	var entries []memoExportEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return 0, fmt.Errorf("memo import: %w", err)
	}
	n := 0
	for i, ee := range entries {
		if ee.Verdict < int(Unknown) || ee.Verdict > int(No) {
			return n, fmt.Errorf("memo import: entry %d: verdict %d out of range", i, ee.Verdict)
		}
		premises := make([]expr.Node, 0, len(ee.Premises))
		for j, raw := range ee.Premises {
			p, err := expr.DecodeNode(raw)
			if err != nil {
				return n, fmt.Errorf("memo import: entry %d premise %d: %w", i, j, err)
			}
			premises = append(premises, p)
		}
		var conclusion expr.Node
		if len(ee.Conclusion) > 0 {
			c, err := expr.DecodeNode(ee.Conclusion)
			if err != nil {
				return n, fmt.Errorf("memo import: entry %d conclusion: %w", i, err)
			}
			conclusion = c
		}
		canon, fps := canonicalize(premises)
		key := cacheKey(ee.Kind, fps, conclusion)
		e := &memoEntry{premises: canon, conclusion: conclusion, verdict: Verdict(ee.Verdict)}
		if _, loaded := m.t.m.LoadOrStore(key, e); !loaded {
			m.t.entries.Add(1)
			n++
		}
	}
	return n, nil
}
