package tm

import (
	"fmt"
	"strconv"
	"strings"

	"interopdb/internal/expr"
)

// RuleKind distinguishes the object comparison relationships of §2.2.
type RuleKind int

// The relationship kinds. Descriptivity is RuleEq/RuleSim with Desc
// attributes on one argument.
const (
	RuleEq RuleKind = iota
	RuleSim
	RuleSimApprox
)

// String renders the kind.
func (k RuleKind) String() string {
	switch k {
	case RuleEq:
		return "Eq"
	case RuleSim:
		return "Sim"
	case RuleSimApprox:
		return "SimApprox"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule is a parsed object comparison rule ρ ⇐ Q.
//
//	rule r1: Eq(O:Publication, R:Item) <= O.isbn = R.isbn
//	rule r2: Eq(O:Publication.{publisher}, R:Publisher) <= O.publisher = R.name
//	rule r3: Sim(R:Proceedings, RefereedPubl) <= R.ref? = true
//	rule r6: Sim(R:Monograph, Publication, PublicationLike) <= true
type Rule struct {
	Name string
	Kind RuleKind
	// First argument: an object binder, optionally with descriptivity
	// attributes (Class.{attrs}).
	Var1, Class1 string
	Desc1        []string
	// Second argument. For Eq: another binder (Var2/Class2/Desc2). For
	// Sim: the target class (Target), optionally a virtual superclass
	// name (Virtual) making it approximate similarity.
	Var2, Class2 string
	Desc2        []string
	Target       string
	Virtual      string
	Cond         expr.Node
	Src          string
}

// IsDescriptivity reports whether the rule relates an object to a value
// set (the paper's descriptivity relationship).
func (r *Rule) IsDescriptivity() bool { return len(r.Desc1) > 0 || len(r.Desc2) > 0 }

// ConvSpec names a conversion or decision function with its arguments,
// e.g. multiply(2), trust(CSLibrary), avg.
type ConvSpec struct {
	Name    string
	NumArgs []float64
	StrArg  string
}

// String renders the spec.
func (c ConvSpec) String() string {
	if len(c.NumArgs) == 0 && c.StrArg == "" {
		return c.Name
	}
	var parts []string
	for _, f := range c.NumArgs {
		parts = append(parts, strconv.FormatFloat(f, 'g', -1, 64))
	}
	if c.StrArg != "" {
		parts = append(parts, c.StrArg)
	}
	return c.Name + "(" + strings.Join(parts, ",") + ")"
}

// PropEq is a property equivalence assertion
// propeq(C.p, C'.p', cf, cf', df).
type PropEq struct {
	LocalClass, LocalAttr   string
	RemoteClass, RemoteAttr string
	CF, CFRemote            ConvSpec
	DF                      ConvSpec
	Src                     string
}

// Mark declares a constraint objective or subjective.
type Mark struct {
	Objective  bool
	Class      string // empty for database constraints
	Constraint string
}

// PairKey addresses an integration specification by the member pair it
// relates, replacing the implicit local/remote convention when several
// specifications coexist in an N-member federation.
type PairKey struct {
	// Local and Remote are the database names of the spec header, in
	// header order ("integration <Local> imports <Remote>").
	Local, Remote string
}

// String renders the pair.
func (k PairKey) String() string { return k.Local + "+" + k.Remote }

// Other returns the pair's other member. ok is false when name is not
// part of the pair.
func (k PairKey) Other(name string) (other string, ok bool) {
	switch name {
	case k.Local:
		return k.Remote, true
	case k.Remote:
		return k.Local, true
	}
	return "", false
}

// IntegrationSpec is a parsed integration specification.
type IntegrationSpec struct {
	Local, Remote string
	Rules         []Rule
	PropEqs       []PropEq
	Marks         []Mark
	// ValueView names descriptivity rules whose object-value conflict is
	// settled by hiding the objects into complex values (the paper's
	// alternative to objectification, §2.3/§4):
	//
	//	valueview r2
	ValueView []string
}

// Pair returns the member pair the specification relates.
func (s *IntegrationSpec) Pair() PairKey { return PairKey{Local: s.Local, Remote: s.Remote} }

// Classes lists every class name the specification touches — rule
// binders, similarity targets and property-equivalence classes — in
// first-mention order. A federation Attach re-derives constraints only
// for these classes (plus their integration artifacts); everything else
// is untouched by the membership change.
func (s *IntegrationSpec) Classes() []string {
	seen := map[string]bool{}
	var out []string
	add := func(names ...string) {
		for _, n := range names {
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			out = append(out, n)
		}
	}
	for i := range s.Rules {
		r := &s.Rules[i]
		add(r.Class1, r.Class2, r.Target)
	}
	for i := range s.PropEqs {
		add(s.PropEqs[i].LocalClass, s.PropEqs[i].RemoteClass)
	}
	return out
}

// ParseIntegration parses an integration specification.
func ParseIntegration(src string) (*IntegrationSpec, error) {
	spec := &IntegrationSpec{}
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "integration "):
			rest := strings.TrimPrefix(line, "integration ")
			parts := strings.Split(rest, " imports ")
			if len(parts) != 2 {
				return nil, errf(lineNo, "header must be 'integration <Local> imports <Remote>'")
			}
			spec.Local = strings.TrimSpace(parts[0])
			spec.Remote = strings.TrimSpace(parts[1])
		case strings.HasPrefix(line, "rule "):
			r, err := parseRule(strings.TrimPrefix(line, "rule "), lineNo)
			if err != nil {
				return nil, err
			}
			spec.Rules = append(spec.Rules, *r)
		case strings.HasPrefix(line, "propeq"):
			p, err := parsePropEq(line, lineNo)
			if err != nil {
				return nil, err
			}
			spec.PropEqs = append(spec.PropEqs, *p)
		case strings.HasPrefix(line, "valueview "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "valueview "))
			if name == "" {
				return nil, errf(lineNo, "valueview needs a rule name")
			}
			spec.ValueView = append(spec.ValueView, name)
		case strings.HasPrefix(line, "objective "), strings.HasPrefix(line, "subjective "):
			obj := strings.HasPrefix(line, "objective ")
			rest := strings.TrimSpace(line[strings.Index(line, " ")+1:])
			cls, con := "", rest
			if dot := strings.LastIndex(rest, "."); dot >= 0 {
				cls, con = rest[:dot], rest[dot+1:]
			}
			spec.Marks = append(spec.Marks, Mark{Objective: obj, Class: cls, Constraint: con})
		default:
			return nil, errf(lineNo, "unexpected line %q", line)
		}
	}
	if spec.Local == "" || spec.Remote == "" {
		return nil, errf(0, "missing 'integration <Local> imports <Remote>' header")
	}
	return spec, nil
}

// MustParseIntegration parses and panics on error; for embedded fixtures.
func MustParseIntegration(src string) *IntegrationSpec {
	s, err := ParseIntegration(src)
	if err != nil {
		panic(fmt.Sprintf("tm.MustParseIntegration: %v", err))
	}
	return s
}

// parseRule parses "name: Eq(arg, arg) <= cond".
func parseRule(src string, lineNo int) (*Rule, error) {
	colon := strings.Index(src, ":")
	if colon < 0 {
		return nil, errf(lineNo, "rule needs 'name: head <= cond'")
	}
	name := strings.TrimSpace(src[:colon])
	rest := strings.TrimSpace(src[colon+1:])

	open := strings.Index(rest, "(")
	if open < 0 {
		return nil, errf(lineNo, "rule head needs '('")
	}
	kindName := strings.TrimSpace(rest[:open])
	depth := 0
	closeIdx := -1
	for i := open; i < len(rest); i++ {
		switch rest[i] {
		case '(', '{':
			depth++
		case ')', '}':
			depth--
			if depth == 0 {
				closeIdx = i
			}
		}
		if closeIdx >= 0 {
			break
		}
	}
	if closeIdx < 0 {
		return nil, errf(lineNo, "rule head parenthesis not closed")
	}
	argsSrc := rest[open+1 : closeIdx]
	tail := strings.TrimSpace(rest[closeIdx+1:])
	if !strings.HasPrefix(tail, "<=") {
		return nil, errf(lineNo, "rule needs '<=' after the head")
	}
	condSrc := strings.TrimSpace(strings.TrimPrefix(tail, "<="))
	cond, err := expr.Parse(condSrc)
	if err != nil {
		return nil, errf(lineNo, "rule %s condition: %v", name, err)
	}

	args := splitTopLevel(argsSrc, ',')
	r := &Rule{Name: name, Cond: cond, Src: src}
	switch kindName {
	case "Eq":
		if len(args) != 2 {
			return nil, errf(lineNo, "Eq takes 2 arguments")
		}
		r.Kind = RuleEq
		if err := parseBinder(args[0], &r.Var1, &r.Class1, &r.Desc1); err != nil {
			return nil, errf(lineNo, "rule %s: %v", name, err)
		}
		if err := parseBinder(args[1], &r.Var2, &r.Class2, &r.Desc2); err != nil {
			return nil, errf(lineNo, "rule %s: %v", name, err)
		}
	case "Sim":
		if len(args) != 2 && len(args) != 3 {
			return nil, errf(lineNo, "Sim takes 2 or 3 arguments")
		}
		r.Kind = RuleSim
		if err := parseBinder(args[0], &r.Var1, &r.Class1, &r.Desc1); err != nil {
			return nil, errf(lineNo, "rule %s: %v", name, err)
		}
		tgt := strings.TrimSpace(args[1])
		if i := strings.Index(tgt, ".{"); i >= 0 {
			var desc []string
			if err := parseDescAttrs(tgt[i+1:], &desc); err != nil {
				return nil, errf(lineNo, "rule %s: %v", name, err)
			}
			r.Desc2 = desc
			tgt = tgt[:i]
		}
		r.Target = tgt
		if len(args) == 3 {
			r.Kind = RuleSimApprox
			r.Virtual = strings.TrimSpace(args[2])
		}
	default:
		return nil, errf(lineNo, "unknown rule kind %q", kindName)
	}
	return r, nil
}

// parseBinder parses "Var:Class" or "Var:Class.{a,b}".
func parseBinder(src string, v, cls *string, desc *[]string) error {
	src = strings.TrimSpace(src)
	colon := strings.Index(src, ":")
	if colon < 0 {
		return fmt.Errorf("binder needs 'var:Class': %q", src)
	}
	*v = strings.TrimSpace(src[:colon])
	rest := strings.TrimSpace(src[colon+1:])
	if i := strings.Index(rest, ".{"); i >= 0 {
		if err := parseDescAttrs(rest[i+1:], desc); err != nil {
			return err
		}
		rest = rest[:i]
	}
	*cls = strings.TrimSpace(rest)
	if *v == "" || *cls == "" {
		return fmt.Errorf("binder needs 'var:Class': %q", src)
	}
	return nil
}

// parseDescAttrs parses "{a,b,c}".
func parseDescAttrs(src string, out *[]string) error {
	src = strings.TrimSpace(src)
	if !strings.HasPrefix(src, "{") || !strings.HasSuffix(src, "}") {
		return fmt.Errorf("descriptivity attributes need '{...}': %q", src)
	}
	for _, a := range strings.Split(src[1:len(src)-1], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("empty descriptivity attribute in %q", src)
		}
		*out = append(*out, a)
	}
	return nil
}

// parsePropEq parses "propeq(C.p, C'.p', cf, cf', df)".
func parsePropEq(line string, lineNo int) (*PropEq, error) {
	open := strings.Index(line, "(")
	closeIdx := strings.LastIndex(line, ")")
	if open < 0 || closeIdx < open {
		return nil, errf(lineNo, "propeq needs '(...)'")
	}
	args := splitTopLevel(line[open+1:closeIdx], ',')
	if len(args) != 5 {
		return nil, errf(lineNo, "propeq takes 5 arguments, got %d", len(args))
	}
	p := &PropEq{Src: line}
	var err error
	if p.LocalClass, p.LocalAttr, err = splitClassAttr(args[0]); err != nil {
		return nil, errf(lineNo, "propeq: %v", err)
	}
	if p.RemoteClass, p.RemoteAttr, err = splitClassAttr(args[1]); err != nil {
		return nil, errf(lineNo, "propeq: %v", err)
	}
	if p.CF, err = parseConvSpec(args[2]); err != nil {
		return nil, errf(lineNo, "propeq cf: %v", err)
	}
	if p.CFRemote, err = parseConvSpec(args[3]); err != nil {
		return nil, errf(lineNo, "propeq cf': %v", err)
	}
	if p.DF, err = parseConvSpec(args[4]); err != nil {
		return nil, errf(lineNo, "propeq df: %v", err)
	}
	return p, nil
}

func splitClassAttr(src string) (string, string, error) {
	src = strings.TrimSpace(src)
	dot := strings.Index(src, ".")
	if dot <= 0 || dot == len(src)-1 {
		return "", "", fmt.Errorf("expected Class.attr, got %q", src)
	}
	return src[:dot], src[dot+1:], nil
}

func parseConvSpec(src string) (ConvSpec, error) {
	src = strings.TrimSpace(src)
	open := strings.Index(src, "(")
	if open < 0 {
		if src == "" {
			return ConvSpec{}, fmt.Errorf("empty function spec")
		}
		return ConvSpec{Name: src}, nil
	}
	if !strings.HasSuffix(src, ")") {
		return ConvSpec{}, fmt.Errorf("unclosed function spec %q", src)
	}
	c := ConvSpec{Name: strings.TrimSpace(src[:open])}
	for _, a := range splitTopLevel(src[open+1:len(src)-1], ',') {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if f, err := strconv.ParseFloat(a, 64); err == nil {
			c.NumArgs = append(c.NumArgs, f)
		} else {
			if c.StrArg != "" {
				return ConvSpec{}, fmt.Errorf("at most one name argument in %q", src)
			}
			c.StrArg = a
		}
	}
	return c, nil
}

// splitTopLevel splits on sep outside parentheses, braces and quotes.
func splitTopLevel(src string, sep byte) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\'':
			inStr = !inStr
		case inStr:
		case c == '(' || c == '{':
			depth++
		case c == ')' || c == '}':
			depth--
		case c == sep && depth == 0:
			out = append(out, src[start:i])
			start = i + 1
		}
	}
	return append(out, src[start:])
}
