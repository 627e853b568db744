package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// errOracle marks a maintained result that differs from re-evaluation.
var errOracle = errors.New("oracle mismatch")

// oracle checks maintained continual-query results against complete
// re-evaluation: the query is planned and run by the algebra executor
// over the store as of the query's last execution, and delta.Diff (the
// paper's Diff operator) between that and the maintained result must
// be empty. Snapshots are cached per (table, timestamp) within one
// check pass, because many queries share a table and an execution
// timestamp.
type oracle struct {
	store *storage.Store
	mgr   *cq.Manager
	snaps map[snapKey]*relation.Relation
}

type snapKey struct {
	table string
	ts    vclock.Timestamp
}

func newOracle(store *storage.Store, mgr *cq.Manager) *oracle {
	return &oracle{store: store, mgr: mgr}
}

// pass checks the named queries and returns how many it checked, how
// many mismatched, and the first mismatch's description. Callers
// quiesce the engine first: no commit or refresh may run during a pass.
func (o *oracle) pass(names []string, queries map[string]string) (checked, mismatches int, first error) {
	o.snaps = make(map[snapKey]*relation.Relation)
	defer func() {
		// Collect the pass's garbage now, so that no collection it
		// would set off overlaps the timed operations that follow.
		o.snaps = nil
		runtime.GC()
	}()
	for _, name := range names {
		if err := o.check(name, queries[name]); err != nil {
			mismatches++
			if first == nil {
				first = err
			}
		}
	}
	return len(names), mismatches, first
}

// check compares one query's maintained result with re-evaluation at
// its last execution timestamp.
func (o *oracle) check(name, query string) error {
	st, err := o.mgr.State(name)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	got, err := o.mgr.Result(name)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return o.checkResult(name, query, st.LastExec, got)
}

// checkResult compares a result claimed for query at ts with
// re-evaluation.
func (o *oracle) checkResult(name, query string, ts vclock.Timestamp, got *relation.Relation) error {
	want, err := o.reevaluate(query, ts)
	if err != nil {
		return fmt.Errorf("%s: re-evaluate: %w", name, err)
	}
	return compareResults(name, got, want)
}

// reevaluate runs query from scratch over the store as of ts. An INTO
// clause is dropped: the oracle wants the query's result, not its
// materialization.
func (o *oracle) reevaluate(query string, ts vclock.Timestamp) (*relation.Relation, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	stmt.Into = ""
	src := cachedView{o: o, ts: ts}
	plan, err := algebra.PlanSelect(stmt, src)
	if err != nil {
		return nil, err
	}
	return algebra.NewExecutor(src).Execute(algebra.Optimize(plan))
}

// floatTol is the relative tolerance for FLOAT values. A SUM maintained
// by adding and subtracting deltas rounds differently from one summed
// from scratch (floating-point addition is not associative), so the
// two may differ in the last bits; any real maintenance error is many
// orders of magnitude larger.
const floatTol = 1e-9

// compareResults reports a mismatch between a maintained result and its
// re-evaluation: Diff must hold no insertion or deletion, and every
// modification it holds must be a FLOAT rounding difference.
func compareResults(name string, got, want *relation.Relation) error {
	d, err := delta.Diff(want, got, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	bad := 0
	for _, r := range d.Rows() {
		if r.Kind() != delta.Modify || !closeValues(r.Old, r.New) {
			bad++
		}
	}
	if bad != 0 {
		ins, del, mod := d.Counts()
		return fmt.Errorf("%w: %s: maintained %d rows, re-evaluated %d; diff +%d -%d ~%d",
			errOracle, name, got.Len(), want.Len(), ins, del, mod)
	}
	return nil
}

// closeValues reports whether two rows are equal, FLOATs within floatTol.
func closeValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind == relation.TFloat && y.Kind == relation.TFloat && !x.IsNull() && !y.IsNull() {
			fx, fy := x.AsFloat(), y.AsFloat()
			if math.Abs(fx-fy) > floatTol*math.Max(1, math.Max(math.Abs(fx), math.Abs(fy))) {
				return false
			}
			continue
		}
		if !x.Equal(y) {
			return false
		}
	}
	return true
}

// compareTables checks that a materialized table holds exactly what its
// producing query's maintained result holds.
func compareTables(store *storage.Store, mgr *cq.Manager, producer, table string) error {
	res, err := mgr.Result(producer)
	if err != nil {
		return err
	}
	contents, err := store.Contents(table)
	if err != nil {
		return err
	}
	if !contents.EqualContents(res) {
		return fmt.Errorf("%w: table %s (%d rows) differs from %s's result (%d rows)",
			errOracle, table, contents.Len(), producer, res.Len())
	}
	return nil
}

// cachedView is the store as of one timestamp, with snapshots shared
// across the queries of one oracle pass.
type cachedView struct {
	o  *oracle
	ts vclock.Timestamp
}

func (v cachedView) Schema(table string) (relation.Schema, error) { return v.o.store.Schema(table) }

func (v cachedView) Relation(table string) (*relation.Relation, error) {
	k := snapKey{table, v.ts}
	if r, ok := v.o.snaps[k]; ok {
		return r, nil
	}
	r, err := v.o.store.SnapshotAt(table, v.ts)
	if err != nil {
		return nil, err
	}
	if v.o.snaps != nil {
		v.o.snaps[k] = r
	}
	return r, nil
}
