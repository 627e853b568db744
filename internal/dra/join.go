package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/vclock"
)

// maxChangedOperands caps the truth-table width; beyond it (4096 terms)
// complete re-evaluation is cheaper and Reevaluate falls back to
// Propagate.
const maxChangedOperands = 12

// operand is one leaf of the flattened join expression: a maximal
// join-free subtree (Scan, possibly under Selects from predicate
// pushdown).
type operand struct {
	plan   algebra.Plan
	lo, hi int // column range in the flattened output schema
}

// flatten decomposes a plan subtree into join operands and the list of
// cross-operand predicate conjuncts collected from Join ON clauses.
// Operand column ranges follow the left-deep concatenation order, so the
// flattened output schema equals the subtree's schema.
func flatten(p algebra.Plan) ([]*operand, []sql.Expr, error) {
	var ops []*operand
	var preds []sql.Expr
	var walk func(algebra.Plan) error
	col := 0
	walk = func(p algebra.Plan) error {
		if j, ok := p.(*algebra.JoinPlan); ok {
			if err := walk(j.Left); err != nil {
				return err
			}
			if err := walk(j.Right); err != nil {
				return err
			}
			if j.On != nil {
				preds = append(preds, algebra.SplitConjuncts(j.On)...)
			}
			return nil
		}
		width := p.Schema().Len()
		ops = append(ops, &operand{plan: p, lo: col, hi: col + width})
		col += width
		return nil
	}
	if err := walk(p); err != nil {
		return nil, nil, err
	}
	return ops, preds, nil
}

// termInput is one operand's relation within a truth-table term: the
// signed rows to enumerate, or — when the operand is an unsubstituted
// pre-state served by a prepared plan's cache — the live cache entry,
// whose maintained hash indexes the hash step probes directly instead
// of building a transient index per term.
type termInput struct {
	signed *delta.Signed
	ent    *cachedOperand
}

func (t termInput) len() int {
	if t.ent != nil {
		return t.ent.rel.Len()
	}
	return t.signed.Len()
}

// rows returns the signed enumeration of the input (building the cached
// replica's +1 view lazily).
func (t termInput) rows() *delta.Signed {
	if t.ent != nil {
		return t.ent.signedView()
	}
	return t.signed
}

// joinDelta computes the signed delta of a join group by truth-table
// expansion (Algorithm 1, steps 1-3), against the group's compiled
// predicates and — when prepared — its cross-refresh operand cache.
func (e *Engine) joinDelta(cj *compiledJoin, ctx *Context, execTS vclock.Timestamp, st *Stats) (*delta.Signed, error) {
	deltas := make([]*delta.Signed, len(cj.ops))
	var changed []int
	for i := range cj.ops {
		d, err := e.signedDelta(cj.opNodes[i], ctx, execTS, st)
		if err != nil {
			return nil, err
		}
		deltas[i] = d
		if d.Len() > 0 {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		if cj.cache != nil {
			cj.cache.advance(ctx, execTS, deltas)
		}
		return &delta.Signed{Schema: cj.outSchema}, nil
	}
	st.relevant = true
	if len(changed) > maxChangedOperands {
		// Complete re-evaluation; the cache is left behind and will
		// revalidate by table version or rebuild at the next refresh.
		return PropagateSigned(cj.plan, ctx.Pre, ctx.Post)
	}

	// Lazily materialized pre-states for unsubstituted operands, served
	// from the cache when one is attached.
	pres := make([]termInput, len(cj.ops))
	have := make([]bool, len(cj.ops))
	preOf := func(i int) (termInput, error) {
		if !have[i] {
			ti, err := e.operandPre(cj, i, ctx, st)
			if err != nil {
				return termInput{}, err
			}
			pres[i] = ti
			have[i] = true
		}
		return pres[i], nil
	}

	out := &delta.Signed{Schema: cj.outSchema}
	k := len(changed)
	for mask := 1; mask < 1<<k; mask++ {
		term := make([]termInput, len(cj.ops))
		isDelta := make([]bool, len(cj.ops))
		empty := false
		for i := range cj.ops {
			substituted := false
			for b, ci := range changed {
				if ci == i && mask&(1<<b) != 0 {
					substituted = true
					break
				}
			}
			if substituted {
				term[i] = termInput{signed: deltas[i]}
				isDelta[i] = true
			} else {
				p, err := preOf(i)
				if err != nil {
					return nil, err
				}
				term[i] = p
			}
			if term[i].len() == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		st.Terms++
		rows, err := e.evalTerm(cj, term, isDelta, st)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, rows...)
	}
	if cj.cache != nil {
		cj.cache.advance(ctx, execTS, deltas)
	}
	return out, nil
}

// operandPre materializes operand i's pre-state: from the cross-refresh
// cache when the join is prepared, transiently from the last-execution
// snapshot otherwise.
func (e *Engine) operandPre(cj *compiledJoin, i int, ctx *Context, st *Stats) (termInput, error) {
	if cj.cache != nil {
		ent, err := cj.cache.pre(i, ctx, st)
		if err != nil {
			return termInput{}, err
		}
		return termInput{ent: ent}, nil
	}
	ex := algebra.NewExecutor(ctx.Pre)
	ex.UseHashJoin = e.UseHashJoin
	rel, err := ex.Execute(cj.ops[i].plan)
	if err != nil {
		return termInput{}, fmt.Errorf("dra: operand pre-state: %w", err)
	}
	st.PreTuplesScanned += rel.Len()
	out := &delta.Signed{Schema: rel.Schema(), Rows: make([]delta.SignedRow, 0, rel.Len())}
	for _, t := range rel.Tuples() {
		out.Rows = append(out.Rows, delta.SignedRow{TID: t.TID, Values: t.Values, Sign: +1})
	}
	return termInput{signed: out}, nil
}

// compilePreds compiles each cross-operand conjunct against the flattened
// schema and computes the bitmask of operands each references.
func compilePreds(preds []sql.Expr, outSchema relation.Schema, ops []*operand) ([]algebra.CompiledExpr, []uint64, error) {
	compiled := make([]algebra.CompiledExpr, len(preds))
	masks := make([]uint64, len(preds))
	for i, p := range preds {
		ce, err := algebra.Compile(p, outSchema)
		if err != nil {
			return nil, nil, fmt.Errorf("dra: join predicate: %w", err)
		}
		compiled[i] = ce
		for _, col := range algebra.ColumnsOf(p) {
			idx, ok := outSchema.ColIndex(col)
			if !ok {
				return nil, nil, fmt.Errorf("dra: join predicate column %q not in schema", col)
			}
			for oi, op := range ops {
				if idx >= op.lo && idx < op.hi {
					masks[i] |= 1 << uint(oi)
					break
				}
			}
		}
	}
	return compiled, masks, nil
}

// partial is an in-progress joined row during term evaluation.
type partial struct {
	vals []relation.Value // full output width; unfilled ranges are zero
	sign int
	tids []relation.TID // per-operand provenance
}

// evalTerm joins the term's operand relations, multiplying signs and
// applying predicates as soon as all referenced operands are joined.
func (e *Engine) evalTerm(cj *compiledJoin, term []termInput, isDelta []bool, st *Stats) ([]delta.SignedRow, error) {
	order := e.termOrder(cj, term, isDelta)
	width := cj.outSchema.Len()

	applied := make([]bool, len(cj.preds))
	var filled uint64

	// Seed with the first operand.
	first := order[0]
	seed := term[first].rows()
	cur := make([]*partial, 0, len(seed.Rows))
	for _, r := range seed.Rows {
		vals := make([]relation.Value, width)
		copy(vals[cj.ops[first].lo:cj.ops[first].hi], r.Values)
		tids := make([]relation.TID, len(cj.ops))
		tids[first] = r.TID
		cur = append(cur, &partial{vals: vals, sign: r.Sign, tids: tids})
	}
	filled |= 1 << uint(first)
	var err error
	if cur, err = e.applyReady(cur, filled, applied, cj.cPreds, cj.masks); err != nil {
		return nil, err
	}

	for _, k := range order[1:] {
		if len(cur) == 0 {
			return nil, nil
		}
		lk, rk := equiPairs(cj, applied, filled, k)
		var next []*partial
		if e.UseHashJoin && len(lk) > 0 {
			next, err = e.hashStep(cur, term[k], cj.ops[k], k, lk, rk, st)
		} else {
			next, err = e.loopStep(cur, term[k].rows(), cj.ops[k], k)
		}
		if err != nil {
			return nil, err
		}
		// Mark equi predicates used by the hash step as applied.
		if e.UseHashJoin && len(lk) > 0 {
			markEquiApplied(cj, applied, filled, k)
		}
		filled |= 1 << uint(k)
		cur = next
		if cur, err = e.applyReady(cur, filled, applied, cj.cPreds, cj.masks); err != nil {
			return nil, err
		}
	}

	// Any predicate not yet applied (defensive) runs now.
	for i := range cj.preds {
		if !applied[i] {
			if cur, err = e.applyOne(cur, cj.cPreds[i]); err != nil {
				return nil, err
			}
			applied[i] = true
		}
	}

	rows := make([]delta.SignedRow, 0, len(cur))
	for _, p := range cur {
		tid := p.tids[0]
		for i := 1; i < len(p.tids); i++ {
			tid = relation.CombineTIDs(tid, p.tids[i])
		}
		rows = append(rows, delta.SignedRow{TID: tid, Values: p.vals, Sign: p.sign})
	}
	return rows, nil
}

// termOrder picks the operand join order: with heuristics, the smallest
// delta operand first, then greedily the operand connected by an equi
// predicate with the smallest relation; without, left-to-right.
func (e *Engine) termOrder(cj *compiledJoin, term []termInput, isDelta []bool) []int {
	lens := make([]int, len(term))
	for i := range term {
		lens[i] = term[i].len()
	}
	return e.termOrderBy(cj, lens, isDelta)
}

// termOrderBy is termOrder on operand sizes alone, so the row and
// columnar term evaluators share one ordering policy.
func (e *Engine) termOrderBy(cj *compiledJoin, lens []int, isDelta []bool) []int {
	n := len(cj.ops)
	order := make([]int, 0, n)
	if !e.UseHeuristics {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	used := make([]bool, n)
	// Start with the smallest delta operand (there is at least one in
	// every term).
	best := -1
	for i := 0; i < n; i++ {
		if isDelta[i] && (best == -1 || lens[i] < lens[best]) {
			best = i
		}
	}
	if best == -1 {
		best = 0
	}
	order = append(order, best)
	used[best] = true
	var filled uint64 = 1 << uint(best)

	connected := func(k int) bool {
		kbit := uint64(1) << uint(k)
		for pi := range cj.preds {
			m := cj.masks[pi]
			if m&kbit != 0 && m&filled != 0 && m&^(filled|kbit) == 0 && cj.equi[pi].ok {
				return true
			}
		}
		return false
	}
	for len(order) < n {
		next := -1
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			if next == -1 {
				next = k
				continue
			}
			nc, kc := connected(next), connected(k)
			switch {
			case kc && !nc:
				next = k
			case kc == nc && lens[k] < lens[next]:
				next = k
			}
		}
		order = append(order, next)
		used[next] = true
		filled |= 1 << uint(next)
	}
	return order
}

func isEquiConjunct(p sql.Expr) bool {
	be, ok := p.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	_, l := be.L.(*sql.ColumnRef)
	_, r := be.R.(*sql.ColumnRef)
	return l && r
}

// equiPairs finds unapplied equi conjuncts linking the filled operands to
// operand k, returning (full-width column index on the filled side,
// local column index within k).
func equiPairs(cj *compiledJoin, applied []bool, filled uint64, k int) (probeCols []int, buildCols []int) {
	kbit := uint64(1) << uint(k)
	lo, hi := cj.ops[k].lo, cj.ops[k].hi
	for i := range cj.preds {
		if applied[i] || !cj.equi[i].ok {
			continue
		}
		if cj.masks[i]&kbit == 0 || cj.masks[i]&filled == 0 || cj.masks[i]&^(filled|kbit) != 0 {
			continue
		}
		li, ri := cj.equi[i].li, cj.equi[i].ri
		inK := func(c int) bool { return c >= lo && c < hi }
		switch {
		case inK(li) && !inK(ri):
			probeCols = append(probeCols, ri)
			buildCols = append(buildCols, li-lo)
		case inK(ri) && !inK(li):
			probeCols = append(probeCols, li)
			buildCols = append(buildCols, ri-lo)
		}
	}
	return probeCols, buildCols
}

// markEquiApplied marks the equi conjuncts consumed by a hash step.
func markEquiApplied(cj *compiledJoin, applied []bool, filled uint64, k int) {
	kbit := uint64(1) << uint(k)
	lo, hi := cj.ops[k].lo, cj.ops[k].hi
	for i := range cj.preds {
		if applied[i] || !cj.equi[i].ok {
			continue
		}
		if cj.masks[i]&kbit == 0 || cj.masks[i]&filled == 0 || cj.masks[i]&^(filled|kbit) != 0 {
			continue
		}
		li, ri := cj.equi[i].li, cj.equi[i].ri
		inK := func(c int) bool { return c >= lo && c < hi }
		if inK(li) != inK(ri) {
			applied[i] = true
		}
	}
}

// hashStep joins the current partials with operand k through a hash
// index on the equi-key columns: the maintained index of a cached
// pre-state replica when one is attached, a transient per-term index
// otherwise.
func (e *Engine) hashStep(cur []*partial, in termInput, op *operand, opIdx int, probeCols, buildCols []int, st *Stats) ([]*partial, error) {
	if in.ent != nil {
		ix := in.ent.index(buildCols, st)
		probe := make([]relation.Value, len(probeCols))
		var out []*partial
		for _, p := range cur {
			for i, c := range probeCols {
				probe[i] = p.vals[c]
			}
			for _, match := range ix.Probe(probe) {
				out = append(out, mergePartial(p, delta.SignedRow{TID: match.TID, Values: match.Values, Sign: +1}, op, opIdx))
			}
		}
		return out, nil
	}
	rel := in.signed
	type bucket []delta.SignedRow
	idx := make(map[uint64]bucket, rel.Len())
	key := make([]relation.Value, len(buildCols))
	for _, r := range rel.Rows {
		for i, c := range buildCols {
			key[i] = r.Values[c]
		}
		h := relation.HashValues(key)
		idx[h] = append(idx[h], r)
	}
	var out []*partial
	probe := make([]relation.Value, len(probeCols))
	for _, p := range cur {
		for i, c := range probeCols {
			probe[i] = p.vals[c]
		}
		h := relation.HashValues(probe)
		for _, r := range idx[h] {
			// Verify against collisions.
			match := true
			for i, c := range buildCols {
				if !r.Values[c].Equal(probe[i]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			out = append(out, mergePartial(p, r, op, opIdx))
		}
	}
	return out, nil
}

// loopStep joins the current partials with operand k by nested loops;
// predicates are applied afterwards by applyReady.
func (e *Engine) loopStep(cur []*partial, rel *delta.Signed, op *operand, opIdx int) ([]*partial, error) {
	out := make([]*partial, 0, len(cur))
	for _, p := range cur {
		for _, r := range rel.Rows {
			out = append(out, mergePartial(p, r, op, opIdx))
		}
	}
	return out, nil
}

func mergePartial(p *partial, r delta.SignedRow, op *operand, opIdx int) *partial {
	vals := make([]relation.Value, len(p.vals))
	copy(vals, p.vals)
	copy(vals[op.lo:op.hi], r.Values)
	tids := make([]relation.TID, len(p.tids))
	copy(tids, p.tids)
	tids[opIdx] = r.TID
	return &partial{vals: vals, sign: p.sign * r.Sign, tids: tids}
}

// applyReady applies every unapplied predicate whose operands are all
// filled, filtering the partials.
func (e *Engine) applyReady(cur []*partial, filled uint64, applied []bool, compiled []algebra.CompiledExpr, masks []uint64) ([]*partial, error) {
	for i := range compiled {
		if applied[i] || masks[i]&^filled != 0 {
			continue
		}
		var err error
		cur, err = e.applyOne(cur, compiled[i])
		if err != nil {
			return nil, err
		}
		applied[i] = true
	}
	return cur, nil
}

func (e *Engine) applyOne(cur []*partial, pred algebra.CompiledExpr) ([]*partial, error) {
	out := cur[:0]
	for _, p := range cur {
		ok, err := algebra.EvalPredicate(pred, relation.Tuple{Values: p.vals})
		if err != nil {
			return nil, fmt.Errorf("dra: term predicate: %w", err)
		}
		if ok {
			out = append(out, p)
		}
	}
	return out, nil
}
