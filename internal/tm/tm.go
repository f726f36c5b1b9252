// Package tm implements the TM-style specification language of the paper
// [BBZ93]: textual database specifications (classes, isa, typed
// attributes, object/class/database constraints, named constants) and
// integration specifications (object comparison rules, property
// equivalence assertions, constraint status marks).
//
// The concrete syntax follows Figure 1 of the paper with two lexical
// substitutions documented in DESIGN.md: hyphenated attribute names use
// underscores (trav_reimb), and the powerset constructor is written
// Pstring (as in the paper's rendering).
package tm

import (
	"fmt"
	"strconv"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// DatabaseSpec is a parsed database specification: the schema plus its
// named constants.
type DatabaseSpec struct {
	Schema *schema.Database
	Consts map[string]object.Value
}

// SpecError reports a specification parse or validation error with its
// line number.
type SpecError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *SpecError) Error() string { return fmt.Sprintf("spec line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &SpecError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// section tracks the parser state within a class body.
type section int

const (
	secNone section = iota
	secAttrs
	secObjCons
	secClassCons
	secDBCons
)

// ParseDatabase parses a full database specification, validates the
// schema, and type-checks every constraint.
func ParseDatabase(src string) (*DatabaseSpec, error) {
	lines := strings.Split(src, "\n")
	var db *schema.Database
	consts := map[string]object.Value{}
	var cur *schema.Class
	sec := secNone

	for i, raw := range lines {
		lineNo := i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(line, "Database constraints"):
			if cur != nil {
				return nil, errf(lineNo, "Database constraints inside class %s", cur.Name)
			}
			sec = secDBCons
		case strings.HasPrefix(line, "Database "):
			if db != nil {
				return nil, errf(lineNo, "duplicate Database header")
			}
			name := strings.TrimSpace(strings.TrimPrefix(line, "Database "))
			if name == "" {
				return nil, errf(lineNo, "missing database name")
			}
			db = schema.NewDatabase(name)
		case strings.HasPrefix(line, "const "):
			rest := strings.TrimPrefix(line, "const ")
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return nil, errf(lineNo, "const needs '='")
			}
			name := strings.TrimSpace(rest[:eq])
			valSrc := strings.TrimSpace(rest[eq+1:])
			n, err := expr.Parse(valSrc)
			if err != nil {
				return nil, errf(lineNo, "const %s: %v", name, err)
			}
			v, ok := logic.FoldConst(n)
			if !ok {
				return nil, errf(lineNo, "const %s: not a constant expression", name)
			}
			consts[name] = v
		case strings.HasPrefix(line, "Class "):
			if db == nil {
				return nil, errf(lineNo, "Class before Database header")
			}
			if cur != nil {
				return nil, errf(lineNo, "Class %s not closed before new Class", cur.Name)
			}
			rest := strings.TrimSpace(strings.TrimPrefix(line, "Class "))
			name, super := rest, ""
			if idx := strings.Index(rest, " isa "); idx >= 0 {
				name = strings.TrimSpace(rest[:idx])
				super = strings.TrimSpace(rest[idx+5:])
			}
			cur = &schema.Class{Name: name, Super: super}
			sec = secNone
		case strings.HasPrefix(line, "end"):
			if cur == nil {
				return nil, errf(lineNo, "end outside a class")
			}
			name := strings.TrimSpace(strings.TrimPrefix(line, "end"))
			if name != "" && name != cur.Name {
				return nil, errf(lineNo, "end %s does not match Class %s", name, cur.Name)
			}
			if err := db.AddClass(cur); err != nil {
				return nil, errf(lineNo, "%v", err)
			}
			cur = nil
			sec = secNone
		case lower == "attributes":
			if cur == nil {
				return nil, errf(lineNo, "attributes outside a class")
			}
			sec = secAttrs
		case lower == "object constraints":
			if cur == nil {
				return nil, errf(lineNo, "object constraints outside a class")
			}
			sec = secObjCons
		case lower == "class constraints":
			if cur == nil {
				return nil, errf(lineNo, "class constraints outside a class")
			}
			sec = secClassCons
		default:
			switch sec {
			case secAttrs:
				if err := parseAttrLine(cur, line, lineNo); err != nil {
					return nil, err
				}
			case secObjCons, secClassCons:
				kind := schema.ObjectConstraint
				if sec == secClassCons {
					kind = schema.ClassConstraint
				}
				c, err := parseConstraintLine(line, lineNo, kind, cur.Name)
				if err != nil {
					return nil, err
				}
				cur.Constraints = append(cur.Constraints, c)
			case secDBCons:
				c, err := parseConstraintLine(line, lineNo, schema.DatabaseConstraint, "")
				if err != nil {
					return nil, err
				}
				db.DBCons = append(db.DBCons, c)
			default:
				return nil, errf(lineNo, "unexpected line %q", line)
			}
		}
	}
	if db == nil {
		return nil, errf(0, "no Database header")
	}
	if cur != nil {
		return nil, errf(len(lines), "Class %s not closed", cur.Name)
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	spec := &DatabaseSpec{Schema: db, Consts: consts}
	if err := spec.typeCheck(); err != nil {
		return nil, err
	}
	return spec, nil
}

// MustParseDatabase parses and panics on error; for embedded fixtures.
func MustParseDatabase(src string) *DatabaseSpec {
	s, err := ParseDatabase(src)
	if err != nil {
		panic(fmt.Sprintf("tm.MustParseDatabase: %v", err))
	}
	return s
}

func stripComment(line string) string {
	// A '--' outside string literals starts a comment.
	inStr := false
	for i := 0; i+1 < len(line); i++ {
		if line[i] == '\'' {
			inStr = !inStr
		}
		if !inStr && line[i] == '-' && line[i+1] == '-' {
			return line[:i]
		}
	}
	return line
}

// parseAttrLine parses "name : type".
func parseAttrLine(c *schema.Class, line string, lineNo int) error {
	colon := strings.Index(line, ":")
	if colon < 0 {
		return errf(lineNo, "attribute needs 'name : type': %q", line)
	}
	name := strings.TrimSpace(line[:colon])
	typeSrc := strings.TrimSpace(line[colon+1:])
	if name == "" || typeSrc == "" {
		return errf(lineNo, "attribute needs 'name : type': %q", line)
	}
	t, err := ParseType(typeSrc)
	if err != nil {
		return errf(lineNo, "attribute %s: %v", name, err)
	}
	c.Attrs = append(c.Attrs, schema.Attribute{Name: name, Type: t})
	return nil
}

// ParseType parses a TM attribute type: string, real, int, bool, Pstring/
// Pint/Preal (powersets), lo..hi integer ranges, or a class name.
func ParseType(src string) (object.Type, error) {
	src = strings.TrimSpace(src)
	if src == "" || src == "P" {
		return nil, fmt.Errorf("bad type %q", src)
	}
	switch src {
	case "string":
		return object.TString, nil
	case "real":
		return object.TReal, nil
	case "int", "integer":
		return object.TInt, nil
	case "bool", "boolean":
		return object.TBool, nil
	case "Pstring":
		return object.SetType{Elem: object.TString}, nil
	case "Pint":
		return object.SetType{Elem: object.TInt}, nil
	case "Preal":
		return object.SetType{Elem: object.TReal}, nil
	}
	if idx := strings.Index(src, ".."); idx >= 0 {
		lo, err1 := strconv.ParseInt(strings.TrimSpace(src[:idx]), 10, 64)
		hi, err2 := strconv.ParseInt(strings.TrimSpace(src[idx+2:]), 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad range type %q", src)
		}
		if lo > hi {
			return nil, fmt.Errorf("empty range type %q", src)
		}
		return object.RangeType{Lo: lo, Hi: hi}, nil
	}
	if strings.HasPrefix(src, "P ") {
		elem, err := ParseType(strings.TrimPrefix(src, "P "))
		if err != nil {
			return nil, err
		}
		return object.SetType{Elem: elem}, nil
	}
	// Class reference: must look like an identifier.
	for i, r := range src {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9') {
			return nil, fmt.Errorf("bad type %q", src)
		}
	}
	return object.ClassType{Class: src}, nil
}

// parseConstraintLine parses "name: body".
func parseConstraintLine(line string, lineNo int, kind schema.ConstraintKind, class string) (schema.Constraint, error) {
	colon := strings.Index(line, ":")
	if colon < 0 {
		return schema.Constraint{}, errf(lineNo, "constraint needs 'name: body': %q", line)
	}
	name := strings.TrimSpace(line[:colon])
	body := strings.TrimSpace(line[colon+1:])
	n, err := expr.Parse(body)
	if err != nil {
		return schema.Constraint{}, errf(lineNo, "constraint %s: %v", name, err)
	}
	return schema.Constraint{Name: name, Kind: kind, Class: class, Expr: n, Src: body}, nil
}

// typeCheck validates class-reference attribute types and type-checks all
// constraints.
func (s *DatabaseSpec) typeCheck() error {
	db := s.Schema
	constTypes := s.ConstTypes()
	for _, c := range db.Classes() {
		for _, a := range c.Attrs {
			if ct, ok := a.Type.(object.ClassType); ok {
				if _, ok := db.Class(ct.Class); !ok {
					return fmt.Errorf("class %s: attribute %s references unknown class %s", c.Name, a.Name, ct.Class)
				}
			}
		}
	}
	for _, c := range db.Classes() {
		for _, k := range c.Constraints {
			ctx := &expr.CheckCtx{DB: db, Class: c.Name, Consts: constTypes}
			if err := expr.CheckConstraint(k.Expr.(expr.Node), ctx); err != nil {
				return fmt.Errorf("class %s, constraint %s (%s): %w", c.Name, k.Name, k.Src, err)
			}
		}
	}
	for _, k := range db.DBCons {
		ctx := &expr.CheckCtx{DB: db, Consts: constTypes}
		if err := expr.CheckConstraint(k.Expr.(expr.Node), ctx); err != nil {
			return fmt.Errorf("database constraint %s (%s): %w", k.Name, k.Src, err)
		}
	}
	return nil
}

// ConstTypes types the named constants by their values, for checking
// formulas that mention them.
func (s *DatabaseSpec) ConstTypes() map[string]object.Type {
	out := make(map[string]object.Type, len(s.Consts))
	for name, v := range s.Consts {
		out[name] = typeOfValue(v)
	}
	return out
}

func typeOfValue(v object.Value) object.Type {
	switch v := v.(type) {
	case object.Int:
		return object.TInt
	case object.Real:
		return object.TReal
	case object.Str:
		return object.TString
	case object.Bool:
		return object.TBool
	case object.Set:
		if v.Len() > 0 {
			return object.SetType{Elem: typeOfValue(v.Elems()[0])}
		}
		return object.SetType{Elem: object.TString}
	default:
		return object.TString
	}
}

// Print renders the schema back in TM syntax (attribute and constraint
// order preserved), for reports and golden tests.
func (s *DatabaseSpec) Print() string {
	var b strings.Builder
	db := s.Schema
	fmt.Fprintf(&b, "Database %s\n\n", db.Name)
	for name, v := range s.Consts {
		fmt.Fprintf(&b, "const %s = %s\n", name, v)
	}
	if len(s.Consts) > 0 {
		b.WriteByte('\n')
	}
	for _, c := range db.Classes() {
		if c.Super != "" {
			fmt.Fprintf(&b, "Class %s isa %s\n", c.Name, c.Super)
		} else {
			fmt.Fprintf(&b, "Class %s\n", c.Name)
		}
		if len(c.Attrs) > 0 {
			b.WriteString("  attributes\n")
			for _, a := range c.Attrs {
				fmt.Fprintf(&b, "    %s : %s\n", a.Name, a.Type.(object.Type))
			}
		}
		writeCons := func(kind schema.ConstraintKind, header string) {
			var any bool
			for _, k := range c.Constraints {
				if k.Kind == kind {
					if !any {
						fmt.Fprintf(&b, "  %s\n", header)
						any = true
					}
					fmt.Fprintf(&b, "    %s: %s\n", k.Name, k.Expr.(expr.Node))
				}
			}
		}
		writeCons(schema.ObjectConstraint, "object constraints")
		writeCons(schema.ClassConstraint, "class constraints")
		fmt.Fprintf(&b, "end %s\n\n", c.Name)
	}
	if len(db.DBCons) > 0 {
		b.WriteString("Database constraints\n")
		for _, k := range db.DBCons {
			fmt.Fprintf(&b, "  %s: %s\n", k.Name, k.Expr.(expr.Node))
		}
	}
	return b.String()
}
