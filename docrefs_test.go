package interopdb

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// declaredTest matches a test, fuzz or benchmark declaration.
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	// citedTest matches such a name in prose; a trailing * or … cites a
	// family (TestDurable*) that needs one member.
	citedTest = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*|…)?`)
	// citedPath matches a Go file path in prose.
	citedPath = regexp.MustCompile(`[\w./-]*\w\.go\b`)
)

// TestDocReferencesExist keeps the prose documents honest: every
// Test…/Fuzz…/Benchmark… name and every *.go path that DESIGN.md,
// PAPERMAP.md or README.md cites must exist in the tree. Documents
// abbreviate paths (view/snapshot.go for internal/view/snapshot.go), so
// a cited path matches any file whose path ends with it.
func TestDocReferencesExist(t *testing.T) {
	declared := map[string]bool{}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		files = append(files, "/"+filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declaredTest.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "PAPERMAP.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range citedTest.FindAllStringSubmatch(text, -1) {
			if !declared[m[1]] && !(m[2] != "" && hasPrefixKey(declared, m[1])) {
				t.Errorf("%s cites %s%s, which no _test.go file declares", doc, m[1], m[2])
			}
		}
		for _, p := range citedPath.FindAllString(text, -1) {
			if !hasPathSuffix(files, "/"+strings.TrimPrefix(p, "./")) {
				t.Errorf("%s cites %s, which is not in the tree", doc, p)
			}
		}
	}
}

func hasPrefixKey(set map[string]bool, prefix string) bool {
	for k := range set {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

func hasPathSuffix(files []string, suffix string) bool {
	for _, f := range files {
		if strings.HasSuffix(f, suffix) {
			return true
		}
	}
	return false
}
