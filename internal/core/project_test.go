package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"interopdb/internal/object"
)

// projectObject is a global object with four attributes for the
// projection tests.
func projectObject() *GObj {
	g := &GObj{ID: 1}
	(&GlobalView{}).newObjectAttrs(g, map[string]object.Value{
		"a": object.Int(1), "b": object.Str("two"), "c": object.Real(3), "d": object.Bool(true),
	})
	return g
}

// freshRow is the projection rule written out independently of
// Project: the listed attributes the object has, or all of them.
func freshRow(g *GObj, sel []string) map[string]object.Value {
	row := map[string]object.Value{}
	for s := range g.dict.Len() {
		if v, ok := g.At(s); ok && len(sel) == 0 {
			row[g.dict.Name(s)] = v
		}
	}
	for _, a := range sel {
		if v, ok := g.Get(a); ok {
			row[a] = v
		}
	}
	return row
}

// sameMap reports whether two rows are the same map, not merely equal.
func sameMap(a, b map[string]object.Value) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestProjectMemo pins the memo's rules: a select list is matched by
// contents, not by slice identity or length; the memo keeps its own copy
// of the list; an empty list memoises a row of every attribute, never a
// map another caller gets from Attrs; and a fifth list drops the oldest.
func TestProjectMemo(t *testing.T) {
	g := projectObject()
	sel := []string{"a", "b"}
	first := g.Project(sel)
	if !reflect.DeepEqual(first, freshRow(g, sel)) {
		t.Fatalf("Project(%v) = %v, want %v", sel, first, freshRow(g, sel))
	}
	if again := g.Project([]string{"a", "b"}); !sameMap(again, first) {
		t.Error("an equal select list in another slice built a second row")
	}
	if other := g.Project([]string{"a", "c"}); sameMap(other, first) || !reflect.DeepEqual(other, freshRow(g, []string{"a", "c"})) {
		t.Errorf("a select list of the same length got %v", other)
	}
	sel[1] = "d" // the caller reuses its slice
	if got := g.Project(sel); sameMap(got, first) || !reflect.DeepEqual(got, freshRow(g, sel)) {
		t.Errorf("after the caller rewrote its select list to %v, Project returned %v", sel, got)
	}
	if got := g.Project([]string{"a", "b"}); !sameMap(got, first) {
		t.Error("the memoised [a b] row was lost when the caller rewrote its slice")
	}

	all := g.Project(nil)
	if attrs := g.Attrs(); sameMap(all, attrs) || !reflect.DeepEqual(all, attrs) {
		t.Errorf("Project(nil) must memoise a copy of Attrs, got %v (Attrs itself: %v)", all, sameMap(all, attrs))
	}
	if got := g.Project([]string{}); !sameMap(got, all) {
		t.Error("an empty and a nil select list built different rows")
	}

	// Projecting onto one list more than fits drops the oldest first.
	h := projectObject()
	lists := [][]string{{"a"}, {"b"}, {"c"}, {"d"}, {"a", "b"}}
	for _, l := range lists {
		h.Project(l)
	}
	if _, ok := h.proj.Load().lookup(lists[0]); ok {
		t.Errorf("a full memo kept its oldest entry %v", lists[0])
	}
	for _, l := range lists[1:] {
		if _, ok := h.proj.Load().lookup(l); !ok {
			t.Errorf("the memo dropped %v, not the oldest entry", l)
		}
	}
}

// TestProjectConcurrent has 8 goroutines project one object under 6
// distinct select lists at once (run it with -race): every row equals a
// fresh projection, and the memo ends with at most projMemoCap entries.
func TestProjectConcurrent(t *testing.T) {
	g := projectObject()
	sels := [][]string{nil, {"a"}, {"b", "a"}, {"a", "b"}, {"c", "missing"}, {"d", "c", "b"}}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				sel := sels[(w+i)%len(sels)]
				if got, want := g.Project(sel), freshRow(g, sel); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("worker %d: Project(%v) = %v, want %v", w, sel, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := g.proj.Load(); m == nil || m.n < 1 || m.n > projMemoCap {
		t.Errorf("memo ends with %v entries, want 1 to %d", m, projMemoCap)
	}
}
