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
	// citedIdent matches pkg.Exported in a span, citedMember
	// Type.Member, and citedMetric layer.snake_name.
	citedIdent  = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)
	citedMember = regexp.MustCompile(`\b([A-Z]\w*)\.([A-Za-z_]\w*)`)
	citedMetric = regexp.MustCompile(`\b([a-z]\w*)\.([a-z0-9]+(?:_[a-z0-9]+)+)\b`)
	// citedCamel matches a span that is one bare lowerCamel identifier
	// with a capital letter inside it, optionally called: `fileKeys()`.
	citedCamel = regexp.MustCompile("^`([a-z][a-z0-9]*[A-Z][A-Za-z0-9]*)(?:\\(\\))?`$")
)

// TestDocReferencesExist keeps the prose documents honest: every
// Test…/Fuzz…/Benchmark… name and every *.go path that DESIGN.md,
// PAPERMAP.md or README.md cites must exist in the tree. Documents
// abbreviate paths (view/snapshot.go for internal/view/snapshot.go), so
// a cited path matches any file whose path ends with it. A backquoted
// pkg.Exported, where pkg is interopdb or a package under internal/,
// must be a top-level declaration of that package; a backquoted
// Type.Member, where such a package declares or aliases Type, must be a
// field or method of it; a backquoted layer.snake_name must be a
// metric BENCHMARK.json declares; and a backquoted bare lowerCamel
// identifier (publishDeltaLocked, or publishDeltaLocked()) must be
// declared — as a function, method, type, constant, variable, field or
// parameter — in the root or an internal/ package, tests included.
func TestDocReferencesExist(t *testing.T) {
	declared := map[string]bool{}
	// names holds every identifier the root and internal/ packages
	// declare, tests included.
	names := map[string]bool{}
	// idents maps a package name to its top-level identifiers.
	idents := map[string]map[string]bool{}
	types := goTypes{map[string][]string{}, map[string]map[string]bool{}, map[string][]string{}}
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
		test := strings.HasSuffix(path, "_test.go")
		if test {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declaredTest.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		if filepath.Dir(path) != "." && !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		addDeclaredNames(names, f)
		if test {
			return nil
		}
		set := idents[f.Name.Name]
		if set == nil {
			set = map[string]bool{}
			idents[f.Name.Name] = set
		}
		for _, n := range topLevelNames(f) {
			set[n] = true
		}
		types.add(f)
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
			if m := citedCamel.FindStringSubmatch(span); m != nil && !names[m[1]] {
				t.Errorf("%s cites %s, which no root or internal/ package declares", doc, span)
			}
			for _, m := range citedIdent.FindAllStringSubmatch(span, -1) {
				if set, ok := idents[m[1]]; ok && !set[m[2]] {
					t.Errorf("%s cites %s, which package %s does not declare", doc, m[0], m[1])
				}
			}
			for _, m := range citedMember.FindAllStringSubmatch(span, -1) {
				if keys := types.named[m[1]]; len(keys) > 0 && !types.anyHas(keys, m[2]) {
					t.Errorf("%s cites %s, which type %s has as neither field nor method", doc, m[0], m[1])
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

// addDeclaredNames adds every identifier a file declares: functions,
// methods, types, constants, variables, struct fields, interface
// methods and parameters.
func addDeclaredNames(set map[string]bool, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			set[n.Name.Name] = true
		case *ast.TypeSpec:
			set[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				set[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				set[id.Name] = true
			}
		}
		return true
	})
}

// goTypes indexes the types the root and internal/ packages declare,
// keyed "pkg.Type": their fields and methods, and the types they embed
// or alias, whose members they share.
type goTypes struct {
	named   map[string][]string        // Type → every "pkg.Type" key
	members map[string]map[string]bool // key → field and method names
	shares  map[string][]string        // key → embedded or aliased keys
}

func (g *goTypes) add(f *ast.File) {
	pkg := f.Name.Name
	member := func(typ, name string) {
		key := pkg + "." + typ
		if g.members[key] == nil {
			g.members[key] = map[string]bool{}
		}
		g.members[key][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				member(typeKey("", d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				key := pkg + "." + ts.Name.Name
				g.named[ts.Name.Name] = append(g.named[ts.Name.Name], key)
				if g.members[key] == nil {
					g.members[key] = map[string]bool{}
				}
				if ts.Assign.IsValid() {
					g.shares[key] = append(g.shares[key], typeKey(pkg, ts.Type))
					continue
				}
				var fields []*ast.Field
				switch tt := ts.Type.(type) {
				case *ast.StructType:
					fields = tt.Fields.List
				case *ast.InterfaceType:
					fields = tt.Methods.List
				}
				for _, fl := range fields {
					for _, n := range fl.Names {
						member(ts.Name.Name, n.Name)
					}
					if len(fl.Names) == 0 {
						g.shares[key] = append(g.shares[key], typeKey(pkg, fl.Type))
					}
				}
			}
		}
	}
}

// typeKey renders a type expression as a "pkg.Type" key (pkg == "": the
// bare name), looking through pointers and type arguments.
func typeKey(pkg string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeKey(pkg, e.X)
	case *ast.IndexExpr:
		return typeKey(pkg, e.X)
	case *ast.IndexListExpr:
		return typeKey(pkg, e.X)
	case *ast.SelectorExpr:
		return typeKey("", e.X) + "." + e.Sel.Name
	case *ast.Ident:
		if pkg == "" {
			return e.Name
		}
		return pkg + "." + e.Name
	}
	return ""
}

// anyHas reports whether one of the keyed types has the member, directly
// or through a type it embeds or aliases. A type sharing the members of
// one declared outside the indexed packages (sync.Mutex) is taken to
// have it.
func (g *goTypes) anyHas(keys []string, member string) bool {
	seen := map[string]bool{}
	var has func(key string) bool
	has = func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		if g.members[key][member] {
			return true
		}
		for _, s := range g.shares[key] {
			if _, declared := g.members[s]; !declared || has(s) {
				return true
			}
		}
		return false
	}
	for _, k := range keys {
		if has(k) {
			return true
		}
	}
	return false
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
