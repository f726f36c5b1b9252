package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Goldens under testdata/ were written at the commit BEFORE the batched
// graft/retraction and the per-class conformation plan landed: they are
// what "same objects, same order" means for those rewrites. For an
// intended behaviour change, delete the golden: the next run writes it
// anew and fails once, so the new file gets read before it is trusted.

// checkGolden compares got with testdata/<name>, reporting the first
// line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: written from the current behaviour — inspect it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n  golden: %s\n  got:    %s", name, i+1, w, g)
		}
	}
}
