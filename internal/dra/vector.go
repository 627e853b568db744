package dra

import (
	"errors"
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// errVecFallback aborts a vectorized evaluation when some value cannot
// live in a typed column (kind drift, untyped NULLs outside the
// projection-NULL case). It never escapes the engine: evaluate catches
// it and re-runs the refresh on the row path. Falling back mid-tree is
// always safe because the vectorized path defers every operand-cache
// advance until the whole tree has evaluated — no replica has been
// mutated when the sentinel surfaces.
var errVecFallback = errors.New("dra: unrepresentable in columnar form")

// pendingAdvance is one join group's deferred cache advance: the
// operand delta batches are folded into the replicas only after the
// whole refresh succeeds, so a row-path fallback re-runs against
// untouched caches.
type pendingAdvance struct {
	cache   *opCache
	batches []*batch.Batch
}

// vecEval is the per-refresh state of the columnar evaluator. Every
// pooled batch it creates lands in owned and returns to the arena in
// one sweep at the end — cross-refresh buffer reuse through the pool is
// where the allocation win comes from.
type vecEval struct {
	e      *Engine
	ctx    *Context
	execTS vclock.Timestamp
	st     *Stats
	owned  []*batch.Batch
	adv    []pendingAdvance
}

// vecEvaluate runs the truth-table differential evaluation over typed
// columnar batches. ok=false means the refresh must re-run on the row
// path (no state was mutated); the error return is a genuine evaluation
// error, identical to what the row path would raise.
func (e *Engine) vecEvaluate(root *compiledNode, ctx *Context, execTS vclock.Timestamp, st *Stats) (*delta.Signed, bool, error) {
	var vst Stats
	v := &vecEval{e: e, ctx: ctx, execTS: execTS, st: &vst}
	out, err := v.nodeBatch(root)
	if err != nil {
		v.releaseOwned()
		if errors.Is(err, errVecFallback) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if out.Len() > 0 {
		vst.relevant = true
	}
	net := v.netBatch(out)
	v.applyAdvances()
	v.releaseOwned()
	st.add(vst)
	return net, true, nil
}

// add accumulates another evaluation's work counts (the vectorized path
// runs on a scratch Stats so a fallback discards its partial counts
// instead of double-counting with the row path's).
func (st *Stats) add(o Stats) {
	st.Terms += o.Terms
	st.DeltaRows += o.DeltaRows
	st.PreTuplesScanned += o.PreTuplesScanned
	st.IndexCacheHits += o.IndexCacheHits
	st.IndexCacheMisses += o.IndexCacheMisses
	st.relevant = st.relevant || o.relevant
}

func (v *vecEval) own(b *batch.Batch) *batch.Batch {
	v.owned = append(v.owned, b)
	return b
}

func (v *vecEval) releaseOwned() {
	for _, b := range v.owned {
		// released: evaluation is over and netBatch materialized the net
		// result into owned memory; no owned batch is referenced again.
		v.e.pool.Put(b)
	}
	v.owned = nil
}

// applyAdvances folds the refresh's operand deltas into the prepared
// caches, exactly as the row path's joinDelta does inline. ToSigned
// materializes owned memory, so the replicas stay valid after the
// source batches return to the pool.
func (v *vecEval) applyAdvances() {
	for _, pa := range v.adv {
		signed := make([]*delta.Signed, len(pa.batches))
		for i, b := range pa.batches {
			if b.Len() > 0 {
				signed[i] = b.ToSigned()
			}
		}
		pa.cache.advance(v.ctx, v.execTS, signed)
	}
	v.adv = nil
}

// nodeBatch is the columnar mirror of signedDelta: the signed change of
// a compiled node's output as a batch.
func (v *vecEval) nodeBatch(n *compiledNode) (*batch.Batch, error) {
	switch {
	case n.scan != nil:
		return v.scanBatch(n.scan)
	case n.sel != nil:
		in, err := v.nodeBatch(n.sel.input)
		if err != nil {
			return nil, err
		}
		return v.filterBatch(in, n.sel.pred)
	case n.proj != nil:
		in, err := v.nodeBatch(n.proj.input)
		if err != nil {
			return nil, err
		}
		return v.projectBatch(in, n.proj.items, n.proj.schema)
	case n.join != nil:
		return v.joinBatch(n.join)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedPlan, n.plan)
	}
}

// scanBatch produces the table's differential window as a signed batch
// under the scan's qualified schema. When the context carries a
// prebuilt columnar window (built once at the storage boundary and
// shared by every CQ over the round) and no further compaction would
// apply, the scan is a zero-copy view rebadge; otherwise it converts
// the row window into a pooled batch, falling back on unrepresentable
// values.
func (v *vecEval) scanBatch(n *algebra.ScanPlan) (*batch.Batch, error) {
	e := v.e
	if pre := v.ctx.Batches[n.Table]; pre != nil && (!e.CompactDeltas || v.ctx.Compacted) {
		vw := v.own(pre.View(n.Schema()))
		v.st.DeltaRows += vw.Len()
		return vw, nil
	}
	d := v.ctx.Deltas[n.Table]
	if d != nil && e.CompactDeltas && !v.ctx.Compacted {
		d = d.Compact()
	}
	size := 0
	if d != nil {
		size = d.Len() * 2
	}
	out := v.own(e.pool.Get(n.Schema(), size))
	if d != nil {
		for _, r := range d.Rows() {
			if !out.AppendChange(r) {
				return nil, errVecFallback
			}
		}
	}
	v.st.DeltaRows += out.Len()
	return out, nil
}

// filterBatch applies a selection predicate column-at-a-time, producing
// selection indices instead of row copies: an all-pass predicate is a
// pass-through, a partial pass compacts the batch in place when it owns
// its buffers, and only shared inputs (window views) pay a copy of the
// surviving rows.
func (v *vecEval) filterBatch(in *batch.Batch, pred algebra.CompiledExpr) (*batch.Batch, error) {
	if in.Len() == 0 {
		return in, nil
	}
	pool := v.e.pool
	sel, err := algebra.SelectBatch(pred, in, pool.GetIdx(in.Len()))
	if err != nil {
		// released: selection aborted; the indices never escaped.
		pool.PutIdx(sel)
		return nil, fmt.Errorf("dra: select: %w", err)
	}
	switch {
	case len(sel) == in.Len():
		// released: all-pass predicate, input flows through unchanged.
		pool.PutIdx(sel)
		return in, nil
	case in.CanGather():
		in.Gather(sel)
		// released: gather compacted the batch in place; indices consumed.
		pool.PutIdx(sel)
		return in, nil
	}
	out := v.own(pool.Get(in.Schema, len(sel)))
	for _, i := range sel {
		out.AppendFrom(in, int(i))
	}
	// released: surviving rows copied into out; indices consumed.
	pool.PutIdx(sel)
	return out, nil
}

// projectBatch evaluates projection as column permutation: items that
// are bare column references of the output type move by slice reuse
// (zero copies; the input slot is hollowed out), and only computed
// items run a row loop. The row path emits untyped NULLs from
// NULL-propagating expressions; the typed output column adopts them as
// typed NULLs, which Equal and the value hash treat identically, so the
// transcripts stay equal.
func (v *vecEval) projectBatch(in *batch.Batch, items []algebra.CompiledExpr, schema relation.Schema) (*batch.Batch, error) {
	out := v.own(v.e.pool.Get(schema, in.Len()))
	width := in.Schema.Len()
	moved := make([]int, len(items)) // source column of a pass-through item; -1 = computed
	refs := make([]int, width)
	for i, ce := range items {
		moved[i] = -1
		if ci, ok := algebra.ColumnIndexOf(ce); ok && schema.Col(i).Type == in.Cols[ci].Type {
			moved[i] = ci
			refs[ci]++
		}
	}
	// Computed items first: they read full input rows, which the column
	// moves below would hollow out.
	var scratch []relation.Value
	n := in.Len()
	for i, ce := range items {
		if moved[i] >= 0 {
			continue
		}
		if scratch == nil {
			scratch = make([]relation.Value, width)
		}
		colType := schema.Col(i).Type
		for r := 0; r < n; r++ {
			in.ReadRow(r, scratch)
			val, err := ce.Eval(relation.Tuple{TID: in.TIDs[r], Values: scratch})
			if err != nil {
				return nil, fmt.Errorf("dra: project: %w", err)
			}
			if val.IsNull() && val.Kind != colType {
				val = relation.TypedNull(colType)
			}
			if !out.AppendColValue(i, val) {
				return nil, errVecFallback
			}
		}
	}
	for i := range items {
		ci := moved[i]
		if ci < 0 {
			continue
		}
		if refs[ci] == 1 {
			out.Cols[i] = in.StealCol(ci)
		} else {
			// The column appears more than once in the projection: every
			// use takes a deep copy so no two output columns alias.
			out.Cols[i] = batch.CloneCol(in.Cols[ci])
		}
	}
	out.CopyRowsFrom(in)
	return out, nil
}

// vecInput is one operand's relation within a truth-table term: a
// signed batch to enumerate, or a cached pre-state replica whose
// maintained hash indexes the hash step probes directly.
type vecInput struct {
	b   *batch.Batch
	ent *cachedOperand
}

func (t *vecInput) length() int {
	if t.ent != nil {
		return t.ent.rel.Len()
	}
	return t.b.Len()
}

// enumerable returns the input as a batch, converting a cached replica
// on first use (seed and nested-loop steps enumerate; hash steps probe
// the replica's index and never call this).
func (t *vecInput) enumerable(v *vecEval) (*batch.Batch, error) {
	if t.b == nil {
		fb, ok := batch.FromSigned(v.e.pool, t.ent.signedView())
		if !ok {
			return nil, errVecFallback
		}
		t.b = v.own(fb)
	}
	return t.b, nil
}

// joinBatch computes the signed delta of a join group by truth-table
// expansion over columnar batches. Cache advances are recorded, not
// applied — see pendingAdvance.
func (v *vecEval) joinBatch(cj *compiledJoin) (*batch.Batch, error) {
	e := v.e
	nOps := len(cj.ops)
	deltas := make([]*batch.Batch, nOps)
	var changed []int
	for i := 0; i < nOps; i++ {
		d, err := v.nodeBatch(cj.opNodes[i])
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
			v.adv = append(v.adv, pendingAdvance{cache: cj.cache, batches: deltas})
		}
		return v.own(e.pool.Get(cj.outSchema, 0)), nil
	}
	v.st.relevant = true
	if len(changed) > maxChangedOperands {
		// Complete re-evaluation, as on the row path; no advance is
		// recorded, the cache revalidates or rebuilds next refresh.
		s, err := PropagateSigned(cj.plan, v.ctx.Pre, v.ctx.Post)
		if err != nil {
			return nil, err
		}
		pb, ok := batch.FromSigned(e.pool, s)
		if !ok {
			return nil, errVecFallback
		}
		return v.own(pb), nil
	}

	// Lazily materialized pre-states, served from the cache when one is
	// attached. cache.pre only normalizes entries to the window start
	// (rebuild or version retag), so running it before a possible
	// fallback is safe — only advance moves state past LastTS.
	pres := make([]*vecInput, nOps)
	preOf := func(i int) (*vecInput, error) {
		if pres[i] == nil {
			ti, err := v.operandPreVec(cj, i)
			if err != nil {
				return nil, err
			}
			pres[i] = ti
		}
		return pres[i], nil
	}

	out := v.own(e.pool.Get(cj.outSchema, 0))
	dIn := make([]*vecInput, nOps)
	for i := range deltas {
		dIn[i] = &vecInput{b: deltas[i]}
	}
	term := make([]*vecInput, nOps)
	isDelta := make([]bool, nOps)
	k := len(changed)
	for mask := 1; mask < 1<<k; mask++ {
		empty := false
		for i := 0; i < nOps; i++ {
			substituted := false
			for b, ci := range changed {
				if ci == i && mask&(1<<b) != 0 {
					substituted = true
					break
				}
			}
			if substituted {
				term[i] = dIn[i]
				isDelta[i] = true
			} else {
				p, err := preOf(i)
				if err != nil {
					return nil, err
				}
				term[i] = p
				isDelta[i] = false
			}
			if term[i].length() == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		v.st.Terms++
		if err := v.evalTermVec(cj, term, isDelta, out); err != nil {
			return nil, err
		}
	}
	if cj.cache != nil {
		v.adv = append(v.adv, pendingAdvance{cache: cj.cache, batches: deltas})
	}
	return out, nil
}

// operandPreVec materializes operand i's pre-state: the live cache
// entry when the join is prepared, a pooled batch executed from the
// last-execution snapshot otherwise.
func (v *vecEval) operandPreVec(cj *compiledJoin, i int) (*vecInput, error) {
	if cj.cache != nil {
		ent, err := cj.cache.pre(i, v.ctx, v.st)
		if err != nil {
			return nil, err
		}
		return &vecInput{ent: ent}, nil
	}
	ex := algebra.NewExecutor(v.ctx.Pre)
	ex.UseHashJoin = v.e.UseHashJoin
	rel, err := ex.Execute(cj.ops[i].plan)
	if err != nil {
		return nil, fmt.Errorf("dra: operand pre-state: %w", err)
	}
	v.st.PreTuplesScanned += rel.Len()
	pb := v.own(v.e.pool.Get(rel.Schema(), rel.Len()))
	for _, t := range rel.Tuples() {
		if !pb.AppendRow(t.TID, +1, t.Values) {
			return nil, errVecFallback
		}
	}
	return &vecInput{b: pb}, nil
}

// evalTermVec joins one truth-table term's operand batches, multiplying
// signs and applying predicates as soon as their operands are joined,
// and appends the term's signed rows to out. The in-progress join state
// is a single pooled batch over the flattened schema (unfilled operand
// ranges hold placeholders that no ready predicate can read) plus one
// pooled TID column per operand for provenance.
func (v *vecEval) evalTermVec(cj *compiledJoin, term []*vecInput, isDelta []bool, out *batch.Batch) error {
	e := v.e
	nOps := len(cj.ops)
	lens := make([]int, nOps)
	for i, t := range term {
		lens[i] = t.length()
	}
	order := e.termOrderBy(cj, lens, isDelta)

	applied := make([]bool, len(cj.preds))
	var filled uint64

	first := order[0]
	fb, err := term[first].enumerable(v)
	if err != nil {
		return err
	}
	work := v.own(e.pool.Get(cj.outSchema, fb.Len()))
	tids := make([][]relation.TID, nOps)
	for i := range tids {
		tids[i] = e.pool.GetTIDs(fb.Len())
	}
	defer func() {
		for i := range tids {
			// released: provenance columns recycled after the term emits.
			e.pool.PutTIDs(tids[i])
		}
	}()
	lo := cj.ops[first].lo
	for r := 0; r < fb.Len(); r++ {
		work.AppendPlaced(fb, r, lo)
		for i := range tids {
			if i == first {
				tids[i] = append(tids[i], fb.TIDs[r])
			} else {
				tids[i] = append(tids[i], 0)
			}
		}
	}
	filled |= 1 << uint(first)
	if err := v.applyReadyVec(cj, work, tids, filled, applied); err != nil {
		return err
	}

	for _, k := range order[1:] {
		if work.Len() == 0 {
			return nil
		}
		lk, rk := equiPairs(cj, applied, filled, k)
		var nw *batch.Batch
		var nt [][]relation.TID
		if e.UseHashJoin && len(lk) > 0 {
			nw, nt, err = v.hashStepVec(work, tids, term[k], cj.ops[k], k, lk, rk)
			if err != nil {
				return err
			}
			markEquiApplied(cj, applied, filled, k)
		} else {
			kb, err := term[k].enumerable(v)
			if err != nil {
				return err
			}
			nw, nt = v.loopStepVec(work, tids, kb, cj.ops[k], k)
		}
		for i := range tids {
			// released: superseded by the join step's output columns.
			e.pool.PutTIDs(tids[i])
		}
		work, tids = nw, nt
		filled |= 1 << uint(k)
		if err := v.applyReadyVec(cj, work, tids, filled, applied); err != nil {
			return err
		}
	}

	// Any predicate not yet applied (defensive) runs now.
	for i := range cj.preds {
		if !applied[i] {
			if err := v.applyPredVec(work, tids, cj.cPreds[i]); err != nil {
				return err
			}
			applied[i] = true
		}
	}

	for r := 0; r < work.Len(); r++ {
		tid := tids[0][r]
		for i := 1; i < nOps; i++ {
			tid = relation.CombineTIDs(tid, tids[i][r])
		}
		out.AppendFrom(work, r)
		out.TIDs[out.Len()-1] = tid
	}
	return nil
}

// applyReadyVec applies every unapplied predicate whose operands are
// all filled, compacting the work batch and provenance columns.
func (v *vecEval) applyReadyVec(cj *compiledJoin, work *batch.Batch, tids [][]relation.TID, filled uint64, applied []bool) error {
	for i := range cj.cPreds {
		if applied[i] || cj.masks[i]&^filled != 0 {
			continue
		}
		if err := v.applyPredVec(work, tids, cj.cPreds[i]); err != nil {
			return err
		}
		applied[i] = true
	}
	return nil
}

func (v *vecEval) applyPredVec(work *batch.Batch, tids [][]relation.TID, pred algebra.CompiledExpr) error {
	if work.Len() == 0 {
		return nil
	}
	pool := v.e.pool
	sel, err := algebra.SelectBatch(pred, work, pool.GetIdx(work.Len()))
	if err != nil {
		// released: predicate aborted; the indices never escaped.
		pool.PutIdx(sel)
		return fmt.Errorf("dra: term predicate: %w", err)
	}
	if len(sel) < work.Len() {
		work.Gather(sel)
		for i := range tids {
			t := tids[i]
			for k, j := range sel {
				t[k] = t[j]
			}
			tids[i] = t[:len(sel)]
		}
	}
	// released: gather and provenance compaction consumed the indices.
	pool.PutIdx(sel)
	return nil
}

// hashStepVec joins the work batch with operand k through a hash index
// on the equi-key columns: the cached replica's maintained index when
// one is attached (probed per row, emitting matches straight into the
// pooled output batch), a transient row-index map over the operand
// batch otherwise.
func (v *vecEval) hashStepVec(work *batch.Batch, tids [][]relation.TID, in *vecInput, op *operand, opIdx int, probeCols, buildCols []int) (*batch.Batch, [][]relation.TID, error) {
	e := v.e
	nOps := len(tids)
	out := v.own(e.pool.Get(work.Schema, work.Len()))
	outTids := make([][]relation.TID, nOps)
	for i := range outTids {
		outTids[i] = e.pool.GetTIDs(work.Len())
	}
	fail := func(err error) (*batch.Batch, [][]relation.TID, error) {
		for i := range outTids {
			// released: step aborted before handing the columns over.
			e.pool.PutTIDs(outTids[i])
		}
		return nil, nil, err
	}
	emitTids := func(srcRow int, tid relation.TID) {
		for i := 0; i < nOps; i++ {
			if i == opIdx {
				outTids[i] = append(outTids[i], tid)
			} else {
				outTids[i] = append(outTids[i], tids[i][srcRow])
			}
		}
	}
	probe := make([]relation.Value, len(probeCols))
	if in.ent != nil {
		ix := in.ent.index(buildCols, v.st)
		scratch := make([]relation.Value, work.Schema.Len())
		for r := 0; r < work.Len(); r++ {
			for i, c := range probeCols {
				probe[i] = work.Value(r, c)
			}
			work.ReadRow(r, scratch)
			sign := work.Signs[r]
			var stepErr error
			ix.ProbeEach(probe, func(t relation.Tuple) {
				if stepErr != nil {
					return
				}
				copy(scratch[op.lo:op.hi], t.Values)
				if !out.AppendRow(0, sign, scratch) {
					stepErr = errVecFallback
					return
				}
				emitTids(r, t.TID)
			})
			if stepErr != nil {
				return fail(stepErr)
			}
		}
		return out, outTids, nil
	}
	fb := in.b
	idx := make(map[uint64][]int32, fb.Len())
	key := make([]relation.Value, len(buildCols))
	for r := 0; r < fb.Len(); r++ {
		for i, c := range buildCols {
			key[i] = fb.Value(r, c)
		}
		h := relation.HashValues(key)
		idx[h] = append(idx[h], int32(r))
	}
	for r := 0; r < work.Len(); r++ {
		for i, c := range probeCols {
			probe[i] = work.Value(r, c)
		}
		h := relation.HashValues(probe)
		for _, m := range idx[h] {
			// Verify against collisions.
			match := true
			for i, c := range buildCols {
				if !fb.Value(int(m), c).Equal(probe[i]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			out.AppendMerged(work, r, fb, int(m), op.lo)
			emitTids(r, fb.TIDs[m])
		}
	}
	return out, outTids, nil
}

// loopStepVec joins the work batch with operand k by nested loops;
// predicates run afterwards in applyReadyVec.
func (v *vecEval) loopStepVec(work *batch.Batch, tids [][]relation.TID, kb *batch.Batch, op *operand, opIdx int) (*batch.Batch, [][]relation.TID) {
	e := v.e
	nOps := len(tids)
	hint := work.Len() * kb.Len()
	out := v.own(e.pool.Get(work.Schema, hint))
	outTids := make([][]relation.TID, nOps)
	for i := range outTids {
		outTids[i] = e.pool.GetTIDs(hint)
	}
	for r := 0; r < work.Len(); r++ {
		for m := 0; m < kb.Len(); m++ {
			out.AppendMerged(work, r, kb, m, op.lo)
			for i := 0; i < nOps; i++ {
				if i == opIdx {
					outTids[i] = append(outTids[i], kb.TIDs[m])
				} else {
					outTids[i] = append(outTids[i], tids[i][r])
				}
			}
		}
	}
	return out, outTids
}

// netEntry is one distinct value-row of a tid's net group: the index of
// its first occurrence in the batch and the accumulated sign count.
type netEntry struct {
	row   int32
	count int32
}

// netGroup accumulates one tid's signed rows. The two inline entries
// cover the common shapes (a compacted window contributes at most a
// -old/+new pair per tid); the spill slice absorbs churn-heavy groups
// without growing the fixed part.
type netGroup struct {
	tid   relation.TID
	n     int32
	inl   [2]netEntry
	spill []netEntry
}

func (g *netGroup) entry(k int) *netEntry {
	if k < len(g.inl) {
		return &g.inl[k]
	}
	return &g.spill[k-len(g.inl)]
}

func (g *netGroup) add(e netEntry) {
	if int(g.n) < len(g.inl) {
		g.inl[g.n] = e
	} else {
		g.spill = append(g.spill, e)
	}
	g.n++
}

// netBatch reduces the signed batch to at most one negative and one
// positive row per tid — netSigned over columns, comparing candidate
// rows in place (RowsEqual) instead of materializing and hashing every
// row. Grouping is a flat group slice addressed through one tid index,
// so the pass costs O(1) allocations rather than two map levels plus an
// entry per row. The emitted rows share one flat owned backing, so the
// result stays valid after the batch returns to the pool.
func (v *vecEval) netBatch(b *batch.Batch) *delta.Signed {
	width := b.Schema.Len()
	groupOf := make(map[relation.TID]int32, b.Len())
	groups := make([]netGroup, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		tid := b.TIDs[i]
		gi, ok := groupOf[tid]
		if !ok {
			gi = int32(len(groups))
			groupOf[tid] = gi
			groups = append(groups, netGroup{tid: tid})
		}
		g := &groups[gi]
		matched := false
		for k := 0; k < int(g.n); k++ {
			e := g.entry(k)
			if b.RowsEqual(int(e.row), i) {
				e.count += int32(b.Signs[i])
				matched = true
				break
			}
		}
		if !matched {
			g.add(netEntry{row: int32(i), count: int32(b.Signs[i])})
		}
	}
	// Entries sit in arrival order within each group and groups in
	// first-arrival order of their tid, so picking the first negative
	// and first positive entry per group reproduces netSigned's emit
	// order exactly.
	nEmit := 0
	for gi := range groups {
		g := &groups[gi]
		neg, pos := false, false
		for k := 0; k < int(g.n); k++ {
			switch c := g.entry(k).count; {
			case c < 0 && !neg:
				neg = true
				nEmit++
			case c > 0 && !pos:
				pos = true
				nEmit++
			}
		}
	}
	out := &delta.Signed{Schema: b.Schema}
	if nEmit == 0 {
		return out
	}
	flat := make([]relation.Value, nEmit*width)
	out.Rows = make([]delta.SignedRow, 0, nEmit)
	emit := func(tid relation.TID, row int32, sign int) {
		vals := flat[:width:width]
		flat = flat[width:]
		b.ReadRow(int(row), vals)
		out.Rows = append(out.Rows, delta.SignedRow{TID: tid, Values: vals, Sign: sign})
	}
	for gi := range groups {
		g := &groups[gi]
		negAt, posAt := int32(-1), int32(-1)
		for k := 0; k < int(g.n); k++ {
			e := g.entry(k)
			switch {
			case e.count < 0 && negAt < 0:
				negAt = e.row
			case e.count > 0 && posAt < 0:
				posAt = e.row
			}
		}
		if negAt >= 0 {
			emit(g.tid, negAt, -1)
		}
		if posAt >= 0 {
			emit(g.tid, posAt, +1)
		}
	}
	return out
}
