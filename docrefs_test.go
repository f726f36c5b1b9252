package interopdb

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
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
	// inlineCode matches a backquoted span.
	inlineCode = regexp.MustCompile("`[^`\n]+`")
	// citedIdent matches pkg.Exported in a span; citedMetric matches
	// layer.snake_name.
	citedIdent  = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)
	citedMetric = regexp.MustCompile(`\b([a-z]\w*)\.([a-z0-9]+(?:_[a-z0-9]+)+)\b`)
)

// TestDocReferencesExist keeps the prose documents honest: every
// Test…/Fuzz…/Benchmark… name and every *.go path that DESIGN.md,
// PAPERMAP.md or README.md cites must exist in the tree. Documents
// abbreviate paths (view/snapshot.go for internal/view/snapshot.go), so
// a cited path matches any file whose path ends with it. A backquoted
// pkg.Exported, where pkg is interopdb or a package under internal/,
// must be a top-level declaration of that package, and a backquoted
// layer.snake_name must be a metric BENCHMARK.json declares.
func TestDocReferencesExist(t *testing.T) {
	declared := map[string]bool{}
	// idents maps a package name to its top-level identifiers.
	idents := map[string]map[string]bool{}
	var files []string
	fset := token.NewFileSet()
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
			return nil
		}
		if filepath.Dir(path) != "." && !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		set := idents[f.Name.Name]
		if set == nil {
			set = map[string]bool{}
			idents[f.Name.Name] = set
		}
		for _, n := range topLevelNames(f) {
			set[n] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchmarkMetrics(t)
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
		for _, span := range inlineCode.FindAllString(text, -1) {
			for _, m := range citedIdent.FindAllStringSubmatch(span, -1) {
				if set, ok := idents[m[1]]; ok && !set[m[2]] {
					t.Errorf("%s cites %s, which package %s does not declare", doc, m[0], m[1])
				}
			}
			for _, m := range citedMetric.FindAllStringSubmatch(span, -1) {
				if metrics.layers[m[1]] && !metrics.names[m[0]] {
					t.Errorf("%s cites %s, which BENCHMARK.json does not declare", doc, m[0])
				}
			}
		}
	}
}

// topLevelNames lists a file's package-level identifiers: functions
// (not methods), types, constants and variables.
func topLevelNames(f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					out = append(out, sp.Name.Name)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}

// benchmarkMetrics reads BENCHMARK.json's metric names and the layers
// (the part before the dot) the per-layer names use.
func benchmarkMetrics(t *testing.T) (m struct{ names, layers map[string]bool }) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	m.names, m.layers = map[string]bool{}, map[string]bool{}
	for _, e := range append(spec.EndToEnd, spec.PerLayer...) {
		m.names[e.Name] = true
		if layer, _, ok := strings.Cut(e.Name, "."); ok {
			m.layers[layer] = true
		}
	}
	return m
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
