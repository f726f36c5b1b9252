package view

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// Column kernels (DESIGN.md §8.7): a residual scan over a class's whole
// extent reads columns, not objects. A class state builds, on first use
// by such a scan, an immutable column per attribute the residual reads —
// a numeric column (one float64 and one kind byte per row) or a
// dictionary column (one code per row, the first row holding each
// distinct value) — and the plan evaluates the kernel-eligible prefix of
// the residual's conjuncts over them as a selection vector. Only the
// survivors reach the row loop, which runs the remaining conjuncts and
// projects.
//
// Kernels mirror the row path bit for bit and never raise an error: a
// row a kernel cannot decide (an absent attribute, an Int result a
// float64 cannot carry exactly, a representative evaluation that
// errors) leaves the selection as undecided and is served by the whole
// residual program on the row path, in its extent position, so rows,
// row order and error text equal the reference scan's. Only a prefix of
// the conjuncts may become kernels: a row a kernel rejects is a row the
// row path short-circuits at that same conjunct, because every earlier
// conjunct is a kernel the row passed, and a kernel never errors.
//
// Columns hang off the class state next to the extent indexes, keyed by
// slot, so they live and die with it. Only a plan that serves nothing
// from an index builds them (buildPlan): such a scan is already
// O(extent), and point reads, index-served plans and the write path
// never do.

// The kinds of a numeric column's rows, and (numAbsent) the result of
// an operand or term the kernel leaves undecided. Their order matters:
// of two operands' kinds the larger is the kind of their sum.
const (
	numInt uint8 = iota
	numReal
	numNull
	numAbsent
)

// maxExactInt is 2^53: an Int of larger magnitude does not survive the
// round trip through float64, so a numeric column refuses it and an
// Int-valued term beyond it is undecided.
const maxExactInt = 1 << 53

// dictRatio is how much longer than its distinct-value count a
// dictionary column must be: past len/dictRatio distinct values the
// per-query verdict evaluations would approach the row path's cost, and
// the column refuses.
const dictRatio = 4

// The verdicts a kernel gives one row.
const (
	verdictFalse uint8 = iota
	verdictTrue
	verdictUndecided
)

// numColumn holds one attribute of every extent row as a float64 and a
// kind (numNull, numInt, numReal or numAbsent). A nil *numColumn is a
// refusal: some row holds a value the column cannot carry.
type numColumn struct {
	f    []float64
	kind []uint8
	// absent reports that some row lacks the attribute.
	absent bool
}

// dictColumn holds one attribute of every extent row as a code into the
// distinct values (-1: absent), with the first row holding each value
// as its representative. A nil *dictColumn is a refusal.
type dictColumn struct {
	code []int32
	rep  []int32
}

// colKey names a column of a class state: the attribute's slot and the
// column's kind.
type colKey struct {
	slot int
	dict bool
}

// numCol returns the class state's numeric column of a slot, building it
// on first use; nil when the column refused.
func (cs *classState) numCol(slot int, filed *atomic.Int64) *numColumn {
	k := colKey{slot: slot}
	if c, ok := cs.cols.Load(k); ok {
		return c.(*numColumn)
	}
	c, _ := cs.cols.LoadOrStore(k, buildNumColumn(cs.ext, slot, filed))
	return c.(*numColumn)
}

// dictCol returns the class state's dictionary column of a slot,
// building it on first use; nil when the column refused.
func (cs *classState) dictCol(slot int, filed *atomic.Int64) *dictColumn {
	k := colKey{slot: slot, dict: true}
	if c, ok := cs.cols.Load(k); ok {
		return c.(*dictColumn)
	}
	c, _ := cs.cols.LoadOrStore(k, buildDictColumn(cs.ext, slot, filed))
	return c.(*dictColumn)
}

// buildNumColumn files every row's value of a slot; filed counts the
// rows read, up to a refusal.
func buildNumColumn(ext []*core.GObj, slot int, filed *atomic.Int64) *numColumn {
	c := &numColumn{f: make([]float64, len(ext)), kind: make([]uint8, len(ext))}
	for i, g := range ext {
		v, ok := g.At(slot)
		if !ok {
			c.kind[i], c.absent = numAbsent, true
			continue
		}
		switch v := v.(type) {
		case object.Null:
			c.kind[i] = numNull
		case object.Int:
			if v > maxExactInt || v < -maxExactInt {
				filed.Add(int64(i + 1))
				return nil
			}
			c.kind[i], c.f[i] = numInt, float64(v)
		case object.Real:
			c.kind[i], c.f[i] = numReal, float64(v)
		default:
			filed.Add(int64(i + 1))
			return nil
		}
	}
	filed.Add(int64(len(ext)))
	return c
}

// dictKey is a value's dictionary key: the value itself for the kinds
// whose Go equality is the identity evaluation sees, a Real by its bits
// (so -0.0 and each NaN keep codes of their own). Int(2) and Real(2)
// differ in type, so they get two codes.
func dictKey(v object.Value) (any, bool) {
	switch v := v.(type) {
	case object.Real:
		return math.Float64bits(float64(v)), true
	case object.Null, object.Int, object.Str, object.Bool, object.Ref:
		return v, true
	default:
		return nil, false
	}
}

// buildDictColumn codes every row's value of a slot; filed counts the
// rows read, up to a refusal.
func buildDictColumn(ext []*core.GObj, slot int, filed *atomic.Int64) *dictColumn {
	c := &dictColumn{code: make([]int32, len(ext))}
	codes := map[any]int32{}
	limit := len(ext) / dictRatio
	for i, g := range ext {
		v, ok := g.At(slot)
		if !ok {
			c.code[i] = -1
			continue
		}
		k, ok := dictKey(v)
		if !ok {
			filed.Add(int64(i + 1))
			return nil
		}
		code, seen := codes[k]
		if !seen {
			if len(c.rep) == limit {
				filed.Add(int64(i + 1))
				return nil
			}
			code = int32(len(c.rep))
			codes[k] = code
			c.rep = append(c.rep, int32(i))
		}
		c.code[i] = code
	}
	filed.Add(int64(len(ext)))
	return c
}

// colPlan is a plan's column half: the kernels of the residual's
// kernel-eligible prefix, in conjunct order, and the remaining
// conjuncts compiled (nil: none remain).
type colPlan struct {
	kernels []kernel
	rest    *expr.Program
}

// kernel is one conjunct evaluated over columns: a numeric comparison
// (num) or a dictionary conjunct (dict and prog).
type kernel struct {
	num  *numKernel
	dict *dictColumn
	prog *expr.Program // the conjunct alone, run once per distinct value
}

// numKernel is a comparison x op y whose sides are terms.
type numKernel struct {
	op   expr.Op
	l, r numTerm
}

// numTerm is an operand, or one +, - or * of two operands.
type numTerm struct {
	x, y numOperand
	op   expr.Op // expr.OpInvalid: x alone
}

// numOperand is a column read or a literal.
type numOperand struct {
	col *numColumn // nil: the literal below
	// ident marks a read by identifier: a row without the attribute is
	// undecided (the row path asks the declared set and the constants);
	// a read through self.a makes it null.
	ident bool
	kind  uint8
	f     float64
}

// batch is how many rows a kernel evaluates at a time, in buffers on
// the filtering goroutine's stack.
const batch = 256

// termBuf holds one term's kinds and values over a batch, and its
// second operand's while the term combines them.
type termBuf struct {
	k, k2 [batch]uint8
	f, f2 [batch]float64
}

// kernelBuf holds a numeric kernel's two terms over a batch.
type kernelBuf struct{ l, r termBuf }

// load reads the operand over a batch: the rows in idx, or m rows from
// lo when idx is nil. A column read of contiguous rows that needs no
// rewriting returns the column's own slices.
func (o *numOperand) load(idx []int32, lo, m int, kb *[batch]uint8, fb *[batch]float64) ([]uint8, []float64) {
	k, f := kb[:m], fb[:m]
	switch {
	case o.col == nil:
		for j := range k {
			k[j], f[j] = o.kind, o.f
		}
		return k, f
	case idx == nil:
		if o.ident || !o.col.absent {
			return o.col.kind[lo : lo+m], o.col.f[lo : lo+m]
		}
		copy(k, o.col.kind[lo:lo+m])
		copy(f, o.col.f[lo:lo+m])
	default:
		for j, i := range idx {
			k[j], f[j] = o.col.kind[i], o.col.f[i]
		}
	}
	if !o.ident && o.col.absent {
		for j := range k {
			if k[j] == numAbsent {
				k[j] = numNull
			}
		}
	}
	return k, f
}

// eval evaluates the term over a batch as expr's arith would: null
// propagates, Int∘Int yields an Int through float64, and an Int result
// past 2^53 (or an absent read) is numAbsent, undecided.
func (t *numTerm) eval(idx []int32, lo, m int, b *termBuf) ([]uint8, []float64) {
	k, f := t.x.load(idx, lo, m, &b.k, &b.f)
	if t.op == expr.OpInvalid {
		return k, f
	}
	if &k[0] != &b.k[0] {
		copy(b.k[:m], k)
		copy(b.f[:m], f)
		k, f = b.k[:m], b.f[:m]
	}
	k2, f2 := t.y.load(idx, lo, m, &b.k2, &b.f2)
	switch t.op {
	case expr.OpAdd:
		for j := range f {
			f[j] += f2[j]
		}
	case expr.OpSub:
		for j := range f {
			f[j] -= f2[j]
		}
	default: // OpMul
		for j := range f {
			f[j] *= f2[j]
		}
	}
	for j := range k {
		// The kinds order Int < Real < Null < Absent: the larger decides.
		k[j] = max(k[j], k2[j])
		if k[j] == numInt && !(math.Abs(f[j]) <= maxExactInt) {
			k[j] = numAbsent
		}
	}
	return k, f
}

// eval writes the kernel's verdict on each row of a batch: the rows in
// idx, or m rows from lo when idx is nil.
func (nk *numKernel) eval(idx []int32, lo int, out []uint8, b *kernelBuf) {
	m := len(out)
	lk, lf := nk.l.eval(idx, lo, m, &b.l)
	rk, rf := nk.r.eval(idx, lo, m, &b.r)
	cmpNumbers(nk.op, lf[:m], rf[:m], out)
	for j := range out {
		if k := max(lk[j], rk[j]); k >= numNull {
			out[j] = nullVerdict(nk.op, k, lk[j] == numNull, rk[j] == numNull)
		}
	}
}

// cmpNumbers writes lf op rf per row as expr's compareVals orders two
// numbers: a NaN compares as object.Compare's 0 (so <= and >= hold),
// and is unequal to everything, as Value.Equal.
func cmpNumbers(op expr.Op, lf, rf []float64, out []uint8) {
	switch op {
	case expr.OpEq:
		for j := range out {
			out[j] = verdictOf(lf[j] == rf[j])
		}
	case expr.OpNe:
		for j := range out {
			out[j] = verdictOf(lf[j] != rf[j])
		}
	case expr.OpLt:
		for j := range out {
			out[j] = verdictOf(lf[j] < rf[j])
		}
	case expr.OpLe:
		for j := range out {
			out[j] = verdictOf(!(lf[j] > rf[j]))
		}
	case expr.OpGt:
		for j := range out {
			out[j] = verdictOf(lf[j] > rf[j])
		}
	default: // OpGe
		for j := range out {
			out[j] = verdictOf(!(lf[j] < rf[j]))
		}
	}
}

// nullVerdict is a comparison's verdict when a side is null or absent
// (k, the larger kind): undecided when absent; else null = null holds,
// null != x holds and an ordering with null fails, as compareVals.
func nullVerdict(op expr.Op, k uint8, lNull, rNull bool) uint8 {
	switch {
	case k == numAbsent:
		return verdictUndecided
	case op == expr.OpEq:
		return verdictOf(lNull && rNull)
	case op == expr.OpNe:
		return verdictOf(lNull != rNull)
	default:
		return verdictFalse
	}
}

func verdictOf(b bool) uint8 {
	if b {
		return verdictTrue
	}
	return verdictFalse
}

// eval writes the kernel's verdict on each row of a batch (see
// numKernel.eval); verdicts are a dictionary kernel's per-code verdicts
// for this query, [0] for an absent value.
func (k *kernel) eval(idx []int32, lo int, out []uint8, verdicts []uint8, b *kernelBuf) {
	if k.num != nil {
		k.num.eval(idx, lo, out, b)
		return
	}
	code := k.dict.code
	if idx == nil {
		for j, c := range code[lo : lo+len(out)] {
			out[j] = verdicts[c+1]
		}
		return
	}
	for j, i := range idx {
		out[j] = verdicts[code[i]+1]
	}
}

// verdicts evaluates a dictionary kernel's conjunct once per distinct
// value, on the value's representative row, in env — the query's own
// snapshot, so a dereference sees the refs as of that snapshot. An
// evaluation that errors leaves its rows undecided.
func (k *kernel) verdicts(env *expr.Env, ext []*core.GObj) []uint8 {
	if k.dict == nil {
		return nil
	}
	out := make([]uint8, len(k.dict.rep)+1)
	out[0] = verdictUndecided
	for c, r := range k.dict.rep {
		env.Self = ext[r]
		ok, err := k.prog.EvalBool(env)
		switch {
		case err != nil:
			out[c+1] = verdictUndecided
		case ok:
			out[c+1] = verdictTrue
		}
	}
	return out
}

// filter evaluates the kernels over the extent and returns the
// selection in extent order: a row every kernel passes as its position,
// a row some kernel left undecided (having passed every earlier one) as
// ^position, appended to sel[:0]. The first kernel reads every row;
// each later one reads the rows still selected and decided.
func (cp *colPlan) filter(env *expr.Env, ext []*core.GObj, sel []int32) []int32 {
	var buf kernelBuf
	var out [batch]uint8
	var idx [batch]int32
	n := len(ext)
	sel = sel[:0]
	first := &cp.kernels[0]
	verdicts := first.verdicts(env, ext)
	for lo := 0; lo < n; lo += batch {
		o := out[:min(batch, n-lo)]
		first.eval(nil, lo, o, verdicts, &buf)
		for j, v := range o {
			switch v {
			case verdictTrue:
				sel = append(sel, int32(lo+j))
			case verdictUndecided:
				sel = append(sel, ^int32(lo+j))
			}
		}
	}
	for ki := 1; ki < len(cp.kernels); ki++ {
		k := &cp.kernels[ki]
		verdicts := k.verdicts(env, ext)
		w := 0
		for r := 0; r < len(sel); {
			start, m := r, 0
			for ; r < len(sel) && m < batch; r++ {
				if sel[r] >= 0 {
					idx[m] = sel[r]
					m++
				}
			}
			if m > 0 {
				k.eval(idx[:m], 0, out[:m], verdicts, &buf)
			}
			j := 0
			for _, x := range sel[start:r] {
				if x >= 0 {
					v := out[j]
					j++
					if v == verdictFalse {
						continue
					}
					if v == verdictUndecided {
						x = ^x
					}
				}
				sel[w] = x
				w++
			}
		}
		sel = sel[:w]
	}
	return sel
}

// planColumns plans the column half of a full-extent residual: the
// longest prefix of its conjuncts that are kernels over columns the
// class state accepts, and the rest compiled. nil when the first
// conjunct is no kernel.
func (e *Engine) planColumns(s *snapshot, cs *classState, conjs []expr.Node) *colPlan {
	var ks []kernel
	for _, c := range conjs {
		k, ok := e.numKernelOf(s, cs, c)
		if !ok {
			k, ok = e.dictKernelOf(s, cs, c)
		}
		if !ok {
			break
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil
	}
	cp := &colPlan{kernels: ks}
	if rest := conjoinNodes(conjs[len(ks):]); rest != nil {
		e.counters.compiles.Add(1)
		cp.rest = expr.CompileSlots(rest, s.dict)
	}
	return cp
}

// numKernelOf makes a conjunct a numeric kernel: a comparison whose
// sides are each a self attribute (an identifier or self.a), a numeric
// or null literal, or one +, - or * of two of those, reading at least
// one attribute, over numeric columns the class state accepts.
func (e *Engine) numKernelOf(s *snapshot, cs *classState, c expr.Node) (kernel, bool) {
	b, ok := c.(expr.Binary)
	if !ok || !b.Op.IsComparison() {
		return kernel{}, false
	}
	l, lreads, ok := e.numTermOf(s, cs, b.L)
	if !ok {
		return kernel{}, false
	}
	r, rreads, ok := e.numTermOf(s, cs, b.R)
	if !ok || lreads+rreads == 0 {
		return kernel{}, false
	}
	return kernel{num: &numKernel{op: b.Op, l: l, r: r}}, true
}

// numTermOf makes one side of a numeric kernel; reads counts the
// columns it reads.
func (e *Engine) numTermOf(s *snapshot, cs *classState, n expr.Node) (t numTerm, reads int, ok bool) {
	operands := []expr.Node{n}
	if a, isBinary := n.(expr.Binary); isBinary {
		if a.Op != expr.OpAdd && a.Op != expr.OpSub && a.Op != expr.OpMul {
			return numTerm{}, 0, false
		}
		t.op, operands = a.Op, []expr.Node{a.L, a.R}
	}
	for i, dst := range []*numOperand{&t.x, &t.y}[:len(operands)] {
		var read bool
		if *dst, read, ok = e.numOperandOf(s, cs, operands[i]); !ok {
			return numTerm{}, 0, false
		}
		if read {
			reads++
		}
	}
	return t, reads, true
}

// numOperandOf makes one operand: a literal, or a column read (read).
func (e *Engine) numOperandOf(s *snapshot, cs *classState, n expr.Node) (op numOperand, read, ok bool) {
	neg := false
	if u, isNeg := n.(expr.Unary); isNeg && u.Op == expr.OpNeg {
		if _, isLit := u.X.(expr.Lit); !isLit {
			return numOperand{}, false, false
		}
		n, neg = u.X, true
	}
	var attr string
	switch n := n.(type) {
	case expr.Lit:
		switch v := n.Val.(type) {
		case object.Null:
			return numOperand{kind: numNull}, false, true
		case object.Int:
			if v > maxExactInt || v < -maxExactInt {
				return numOperand{}, false, false
			}
			if neg {
				v = -v
			}
			return numOperand{kind: numInt, f: float64(v)}, false, true
		case object.Real:
			if neg {
				v = -v
			}
			return numOperand{kind: numReal, f: float64(v)}, false, true
		}
		return numOperand{}, false, false
	case expr.Ident:
		attr, op.ident = n.Name, true
	case expr.Path:
		if id, ok := n.Recv.(expr.Ident); !ok || id.Name != "self" {
			return numOperand{}, false, false
		}
		attr = n.Attr
	default:
		return numOperand{}, false, false
	}
	slot, ok := s.dict.Slot(attr)
	if !ok || attr == "self" {
		return numOperand{}, false, false
	}
	if op.col = cs.numCol(slot, &e.counters.colFiled); op.col == nil {
		return numOperand{}, false, false
	}
	return op, true, true
}

// dictKernelOf makes a conjunct a dictionary kernel: every read it makes
// goes through one self attribute — the attribute itself (an identifier
// or self.a) or a path from it, such as publisher.name — beside
// literals, so its value decides the conjunct; over a dictionary column
// the class state accepts.
func (e *Engine) dictKernelOf(s *snapshot, cs *classState, c expr.Node) (kernel, bool) {
	var attr string
	if !readsOneAttr(c, &attr) || attr == "" {
		return kernel{}, false
	}
	slot, ok := s.dict.Slot(attr)
	if !ok {
		return kernel{}, false
	}
	col := cs.dictCol(slot, &e.counters.colFiled)
	if col == nil {
		return kernel{}, false
	}
	e.counters.compiles.Add(1)
	return kernel{dict: col, prog: expr.CompileSlots(c, s.dict)}, true
}

// readsOneAttr reports whether every read of the node goes through the
// self attribute *attr (set by the first read).
func readsOneAttr(n expr.Node, attr *string) bool {
	same := func(name string) bool {
		if *attr == "" {
			*attr = name
		}
		return name == *attr
	}
	switch n := n.(type) {
	case expr.Lit:
		return true
	case expr.Ident:
		return n.Name != "self" && same(n.Name)
	case expr.Path:
		if id, ok := n.Recv.(expr.Ident); ok && id.Name == "self" {
			return same(n.Attr)
		}
		return readsOneAttr(n.Recv, attr)
	case expr.Unary:
		return readsOneAttr(n.X, attr)
	case expr.Binary:
		return readsOneAttr(n.L, attr) && readsOneAttr(n.R, attr)
	case expr.In:
		return readsOneAttr(n.X, attr) && readsOneAttr(n.Set, attr)
	case expr.SetLit:
		for _, el := range n.Elems {
			if !readsOneAttr(el, attr) {
				return false
			}
		}
		return true
	case expr.Call:
		for _, a := range n.Args {
			if !readsOneAttr(a, attr) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// selPool recycles selection vectors: a scan's selection is as long as
// its extent and dies with the query, and allocating it per query would
// add an extent-sized garbage block to every scan.
var selPool = sync.Pool{New: func() any { return new([]int32) }}

// runColumns serves a plan with a column half over the whole extent:
// the kernels select, then each selected row runs the remaining
// conjuncts — or, when a kernel left it undecided, the whole residual —
// and is projected. Stats count every candidate, as the row path does;
// a residual error reports the rows up to the failing one as scanned.
func (e *Engine) runColumns(ctx context.Context, s *snapshot, cs *classState, p *plan, q Query, stats Stats) ([]Row, Stats, error) {
	if ctx.Err() != nil {
		return nil, stats, ctx.Err()
	}
	env := s.queryEnv()
	buf := selPool.Get().(*[]int32)
	defer selPool.Put(buf)
	sel := p.cols.filter(env, cs.ext, *buf)
	*buf = sel
	stats.Scanned = len(cs.ext)
	var rows []Row
	for j, x := range sel {
		if j%ctxCheckRows == 0 && j > 0 && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		prog := p.cols.rest
		if x < 0 {
			x, prog = ^x, p.prog
		}
		g := cs.ext[x]
		if prog != nil {
			env.Self = g
			ok, err := prog.EvalBool(env)
			if err != nil {
				stats.Scanned = int(x) + 1
				return nil, stats, fmt.Errorf("query on %s: %w", q.Class, err)
			}
			if !ok {
				continue
			}
		}
		if rows == nil {
			rows = make([]Row, 0, len(sel)-j)
		}
		rows = append(rows, Row(g.Project(q.Select)))
	}
	return rows, stats, nil
}
