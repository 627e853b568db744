package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// cachedOperand is one join operand's pre-state kept across refreshes:
// the operand subtree's output as of ts, plus mutable hash indexes on
// every join-key column set it has been probed with. Where the
// transient truth table re-executes the operand against a historical
// snapshot and rebuilds a hash index per term, the cache advances the
// replica by the operand's own signed delta and keeps the indexes
// maintained.
type cachedOperand struct {
	rel     *relation.Relation
	view    *delta.Signed // +1 signed view of rel, built lazily, dropped on advance
	indexes map[uint64]*relation.MutableIndex

	// ts is the timestamp the replica reflects: rel equals the operand
	// subtree executed at ts.
	ts vclock.Timestamp
	// version is the operand table's change counter from the refresh
	// that advanced the entry to ts — snapshotted by the caller BEFORE
	// that refresh's timestamp was issued (Context.Versions), which is
	// what makes a later equality check prove the table untouched in
	// between. verOK marks the snapshot as present.
	version uint64
	verOK   bool
}

// signedView returns the replica as a +1 signed relation for term
// enumeration (seeding and nested-loop steps).
func (c *cachedOperand) signedView() *delta.Signed {
	if c.view == nil {
		out := &delta.Signed{Schema: c.rel.Schema(), Rows: make([]delta.SignedRow, 0, c.rel.Len())}
		for _, t := range c.rel.Tuples() {
			out.Rows = append(out.Rows, delta.SignedRow{TID: t.TID, Values: t.Values, Sign: +1})
		}
		c.view = out
	}
	return c.view
}

// index returns the maintained hash index on cols, building it on first
// use (counted as a miss: the build scans the replica once; afterwards
// refreshes probe it for free).
func (c *cachedOperand) index(cols []int, st *Stats) *relation.MutableIndex {
	h := keySetHash(cols)
	ix := c.indexes[h]
	if ix == nil {
		ix = relation.NewMutableIndex(cols)
		for _, t := range c.rel.Tuples() {
			ix.Add(t)
		}
		c.indexes[h] = ix
		st.IndexCacheMisses++
	}
	return ix
}

func keySetHash(cols []int) uint64 {
	vs := make([]relation.Value, len(cols))
	for i, c := range cols {
		vs[i] = relation.Int(int64(c))
	}
	return relation.HashValues(vs)
}

// opCache is one prepared join group's cross-refresh operand cache. It
// is owned by a single Prepared and touched only inside its Step (the
// cq manager serializes refreshes per CQ under the instance lock);
// nothing here is safe for concurrent use.
type opCache struct {
	engine *Engine
	cj     *compiledJoin
	tables []string // operand scan table; "" when the operand has several
	ents   []*cachedOperand
}

func newOpCache(e *Engine, cj *compiledJoin) *opCache {
	tables := make([]string, len(cj.ops))
	for i, op := range cj.ops {
		if scans := algebra.Tables(op.plan); len(scans) == 1 {
			tables[i] = scans[0].Table
		}
	}
	return &opCache{engine: e, cj: cj, tables: tables, ents: make([]*cachedOperand, len(cj.ops))}
}

// pre returns operand i's pre-state entry for a refresh whose window
// starts at ctx.LastTS. Validation is two-tier:
//
//   - an entry advanced to exactly ctx.LastTS by the previous refresh
//     is current (the common case: consecutive refreshes);
//   - otherwise, an unchanged table change-counter between the entry's
//     refresh and this one proves the base — hence the operand output —
//     identical at every timestamp in between, so only the timestamp
//     tag moves.
//
// Anything else is rebuilt from the pre-state snapshot, which is the
// transient truth table's cost.
func (c *opCache) pre(i int, ctx *Context, st *Stats) (*cachedOperand, error) {
	if ent := c.ents[i]; ent != nil {
		if ent.ts == ctx.LastTS {
			st.IndexCacheHits++
			return ent, nil
		}
		if ent.verOK && ctx.Versions != nil && c.tables[i] != "" {
			if v, ok := ctx.Versions[c.tables[i]]; ok && v == ent.version {
				ent.ts = ctx.LastTS
				st.IndexCacheHits++
				return ent, nil
			}
		}
	}
	ex := algebra.NewExecutor(ctx.Pre)
	ex.UseHashJoin = c.engine.UseHashJoin
	rel, err := ex.Execute(c.cj.ops[i].plan)
	if err != nil {
		return nil, fmt.Errorf("dra: operand pre-state: %w", err)
	}
	st.PreTuplesScanned += rel.Len()
	st.IndexCacheMisses++
	ent := &cachedOperand{rel: rel, indexes: make(map[uint64]*relation.MutableIndex), ts: ctx.LastTS}
	c.ents[i] = ent
	return ent, nil
}

// advance folds the refresh's operand deltas into every entry that is
// current at ctx.LastTS, moving it to execTS — deletions drop the tuple
// from the replica and every index, anything else upserts (a signed
// modification arrives as -old before +new, so index removal precedes
// the re-add). When every operand delta is empty — a refresh the
// Section 5.2 refinement counts as skipped — the replicas are already
// the state at execTS and only the tags move.
//
// Entries from older refreshes that were not revalidated this round are
// left alone; the next pre() call version-checks or rebuilds them.
func (c *opCache) advance(ctx *Context, execTS vclock.Timestamp, deltas []*delta.Signed) {
	for i, ent := range c.ents {
		if ent == nil || ent.ts != ctx.LastTS {
			continue
		}
		if deltas[i] != nil && len(deltas[i].Rows) > 0 {
			for _, r := range deltas[i].Rows {
				tup := relation.Tuple{TID: r.TID, Values: r.Values}
				if r.Sign < 0 {
					_ = ent.rel.Delete(r.TID)
					for _, ix := range ent.indexes {
						ix.Remove(tup)
					}
				} else {
					_ = ent.rel.Upsert(tup)
					for _, ix := range ent.indexes {
						ix.Add(tup)
					}
				}
			}
			ent.view = nil
		}
		ent.ts = execTS
		if c.tables[i] != "" && ctx.Versions != nil {
			if v, ok := ctx.Versions[c.tables[i]]; ok {
				ent.version = v
				ent.verOK = true
				continue
			}
		}
		ent.verOK = false
	}
}

// invalidate drops every entry (used when a strategy re-pick returns to
// the truth table after the replicas went unmaintained).
func (c *opCache) invalidate() {
	for i := range c.ents {
		c.ents[i] = nil
	}
}
