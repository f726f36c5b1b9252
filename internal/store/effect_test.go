package store

import (
	"encoding/json"
	"testing"

	"interopdb/internal/object"
)

// TestEffectJSONIsTheLogFormat pins an Effect's encoding to the log's
// body format byte for byte — kind-tagged values, empty maps and an
// update's class omitted — and its decoding back to equal values.
func TestEffectJSONIsTheLogFormat(t *testing.T) {
	for _, c := range []struct {
		e    Effect
		want string
	}{
		{Effect{Kind: OpInsert, Class: "Thing", OID: 5, Attrs: map[string]object.Value{"v": object.Int(1), "tag": object.Str("x")}},
			`{"k":1,"c":"Thing","o":5,"a":{"tag":{"t":"str","str":"x"},"v":{"t":"int","int":1}}}`},
		{Effect{Kind: OpUpdate, OID: 5, Attrs: map[string]object.Value{"v": object.Real(2.5)}, Prev: map[string]object.Value{}},
			`{"k":2,"o":5,"a":{"v":{"t":"real","real":2.5}}}`},
		{Effect{Kind: OpDelete, Class: "Thing", OID: 5, Prev: map[string]object.Value{"s": object.NewSet(object.Int(2), object.Int(1))}},
			`{"k":3,"c":"Thing","o":5,"p":{"s":{"t":"set","elems":[{"t":"int","int":1},{"t":"int","int":2}]}}}`},
	} {
		b, err := json.Marshal(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("encoding:\n  got  %s\n  want %s", b, c.want)
		}
		var back Effect
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !effectsEqual([]Effect{back}, []Effect{c.e}) {
			t.Errorf("round trip changed %+v into %+v", c.e, back)
		}
	}
	var e Effect
	if err := json.Unmarshal([]byte(`{"k":1,"c":"Thing","o":5,"a":{"v":{"t":"int"}}}`), &e); err == nil {
		t.Error("a value without its payload decoded")
	}
}

// effectsEqual compares effect lists by value (nil and empty maps alike).
func effectsEqual(a, b []Effect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Class != y.Class || x.OID != y.OID ||
			!object.AttrsEqual(x.Attrs, y.Attrs) || !object.AttrsEqual(x.Prev, y.Prev) {
			return false
		}
	}
	return true
}

// TestInverseDropsUpdateWithoutPriorValues pins the one case the two
// former inverses disagreed on: an update none of whose assigned
// attributes existed before has nothing to restore, so it inverts to
// nothing at all — not to an empty update — and everything Inverse
// returns is an effect a log record may carry.
func TestInverseDropsUpdateWithoutPriorValues(t *testing.T) {
	s := New(tinyDB(t, "A"), nil)
	s.Enforce = false
	oid := s.MustInsert("Thing", map[string]object.Value{"v": object.Int(1)})
	s.Enforce = true

	fresh := Capture(s, Effect{Kind: OpUpdate, OID: oid, Attrs: map[string]object.Value{"tag": object.Str("new")}})
	if len(fresh.Prev) != 0 {
		t.Fatalf("captured prior values %v for an attribute that was absent", fresh.Prev)
	}
	ins := Effect{Kind: OpInsert, Class: "Thing", OID: 9, Attrs: map[string]object.Value{"v": object.Int(2)}}
	inv := Inverse([]Effect{ins, fresh})
	want := []Effect{{Kind: OpDelete, Class: "Thing", OID: 9, Prev: ins.Attrs}}
	if !effectsEqual(inv, want) {
		t.Fatalf("Inverse = %+v, want only the insert's delete", inv)
	}
	for _, e := range inv {
		if err := e.validate(); err != nil {
			t.Errorf("Inverse produced an effect no record may carry: %v", err)
		}
	}
	if inv := Inverse([]Effect{fresh}); len(inv) != 0 || Applied(s, inv) {
		t.Fatalf("Inverse of the update alone = %+v; want empty, which proves nothing", inv)
	}
}

// TestEffectCaptureApplyInvert runs one recorded transaction forward
// and back: the captured effects are Applied after the commit and not
// before, their Inverse staged and committed restores the prior state
// exactly (re-created objects keep their OIDs), and the verdicts flip.
func TestEffectCaptureApplyInvert(t *testing.T) {
	s := New(tinyDB(t, "A"), nil)
	s.Enforce = false
	keep := s.MustInsert("Thing", map[string]object.Value{"v": object.Int(1), "tag": object.Str("old")})
	gone := s.MustInsert("Thing", map[string]object.Value{"v": object.Int(2), "tag": object.Str("doomed")})
	s.Enforce = true
	before := New(tinyDB(t, "A"), nil)
	mc, err := SnapshotStore(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.RestoreInto(before); err != nil {
		t.Fatal(err)
	}

	tx := s.Begin()
	oid, err := tx.Insert("Thing", map[string]object.Value{"v": object.Int(3), "tag": object.Str("added")})
	if err != nil {
		t.Fatal(err)
	}
	fwd := []Effect{
		Capture(s, Effect{Kind: OpInsert, Class: "Thing", OID: oid, Attrs: map[string]object.Value{"v": object.Int(3), "tag": object.Str("added")}}),
		Capture(s, Effect{Kind: OpUpdate, OID: keep, Attrs: map[string]object.Value{"tag": object.Str("new")}}),
		Capture(s, Effect{Kind: OpDelete, OID: gone}),
	}
	if err := Stage(tx, fwd[1:]...); err != nil {
		t.Fatal(err)
	}
	if Applied(s, fwd) {
		t.Fatal("effects reported applied before the commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !Applied(s, fwd) {
		t.Fatal("effects not reported applied after the commit")
	}

	inv := Inverse(fwd)
	undo := s.Begin()
	if err := Stage(undo, inv...); err != nil {
		t.Fatal(err)
	}
	if err := undo.Commit(); err != nil {
		t.Fatal(err)
	}
	if !Applied(s, inv) || Applied(s, fwd) {
		t.Fatal("verdicts did not flip after the inverse committed")
	}
	before.nextOID = s.nextOID // the compensated insert burned its OID
	assertStoresIdentical(t, before, s)
}
