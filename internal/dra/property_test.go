package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// randomUpdates applies a random batch of transactions to the fixture's
// tables, keeping per-table live tid lists.
type liveSet map[string][]relation.TID

func applyRandomBatch(t *testing.T, f *fixture, rng *rand.Rand, live liveSet, nTx, opsPerTx int) {
	t.Helper()
	tables := f.store.TableNames()
	for txn := 0; txn < nTx; txn++ {
		tx := f.store.Begin()
		dirty := false
		for op := 0; op < opsPerTx; op++ {
			table := tables[rng.Intn(len(tables))]
			schema, err := f.store.Schema(table)
			if err != nil {
				t.Fatal(err)
			}
			switch k := rng.Intn(3); {
			case k == 0 || len(live[table]) == 0: // insert
				vals := randomRow(rng, schema)
				tid, err := tx.Insert(table, vals)
				if err != nil {
					t.Fatal(err)
				}
				live[table] = append(live[table], tid)
				dirty = true
			case k == 1: // modify
				idx := rng.Intn(len(live[table]))
				tid := live[table][idx]
				if err := tx.Update(table, tid, randomRow(rng, schema)); err != nil {
					t.Fatal(err)
				}
				dirty = true
			default: // delete
				idx := rng.Intn(len(live[table]))
				tid := live[table][idx]
				if err := tx.Delete(table, tid); err != nil {
					t.Fatal(err)
				}
				live[table] = append(live[table][:idx], live[table][idx+1:]...)
				dirty = true
			}
		}
		if dirty {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort()
		}
	}
}

// randomRow generates values for a schema; key-ish columns draw from a
// small domain so joins actually match.
func randomRow(rng *rand.Rand, schema relation.Schema) []relation.Value {
	out := make([]relation.Value, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		switch schema.Col(i).Type {
		case relation.TInt:
			out[i] = relation.Int(int64(rng.Intn(8)))
		case relation.TFloat:
			out[i] = relation.Float(float64(rng.Intn(200)))
		case relation.TString:
			out[i] = relation.Str(fmt.Sprintf("k%d", rng.Intn(6)))
		case relation.TBool:
			out[i] = relation.Bool(rng.Intn(2) == 0)
		}
	}
	return out
}

// TestDRAEquivalenceProperty is the package's central theorem check
// (Section 4.2: "the differential re-evaluation ... is functionally
// equivalent to the complete re-evaluation solution"): over random
// multi-table histories and a pool of SPJ query shapes, chained
// differential re-evaluation must always equal running the query from
// scratch — with every combination of engine flags.
func TestDRAEquivalenceProperty(t *testing.T) {
	queries := []string{
		"SELECT * FROM r WHERE a > 100",
		"SELECT s1, a FROM r WHERE a > 50 AND s1 != 'k0'",
		"SELECT * FROM r JOIN u ON r.s1 = u.s2",
		"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
		"SELECT * FROM r, u WHERE r.s1 = u.s2 AND u.b < 150 AND r.a > 20",
		"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
		"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x",
	}
	engines := []func() *Engine{
		NewEngine,
		func() *Engine { e := NewEngine(); e.UseHeuristics = false; return e },
		func() *Engine { e := NewEngine(); e.CompactDeltas = false; return e },
		func() *Engine { e := NewEngine(); e.UseHashJoin = false; return e },
		func() *Engine { e := NewEngine(); e.Vectorized = false; return e },
		func() *Engine {
			e := NewEngine()
			e.UseHeuristics, e.CompactDeltas, e.UseHashJoin = false, false, false
			return e
		},
	}

	rSchema := relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)
	uSchema := relation.MustSchema(
		relation.Column{Name: "s2", Type: relation.TString},
		relation.Column{Name: "b", Type: relation.TFloat},
		relation.Column{Name: "x", Type: relation.TInt},
	)
	wSchema := relation.MustSchema(
		relation.Column{Name: "x", Type: relation.TInt},
		relation.Column{Name: "c", Type: relation.TFloat},
	)

	for qi, q := range queries {
		for ei, mkEngine := range engines {
			t.Run(fmt.Sprintf("q%d_e%d", qi, ei), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*100 + ei)))
				f := newFixture(t, map[string]relation.Schema{"r": rSchema, "u": uSchema, "w": wSchema})
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 10, 3)

				plan := f.plan(t, q)
				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()

				// Chain several differential rounds: each round's Complete
				// feeds the next as Prev.
				for round := 0; round < 6; round++ {
					applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
					e := mkEngine()
					_, complete := f.reval(t, e, plan, prev) // reval asserts vs full re-eval
					prev = complete
					f.mark()
				}
			})
		}
	}
}

// TestFullReevaluateBaselineAgreesWithDRA checks the benchmark baseline
// produces the same Delta as the engine over a random history.
func TestFullReevaluateBaselineAgreesWithDRA(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rSchema := relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)
	f := newFixture(t, map[string]relation.Schema{"r": rSchema})
	live := liveSet{}
	applyRandomBatch(t, f, rng, live, 10, 3)

	plan := f.plan(t, "SELECT * FROM r WHERE a > 100")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	applyRandomBatch(t, f, rng, live, 4, 3)

	ctx := f.ctx(t)
	ctx.Prev = prev
	ts := f.store.Now()
	draRes, err := NewEngine().Reevaluate(plan, ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := FullReevaluate(plan, f.store.Live(), prev, ts)
	if err != nil {
		t.Fatal(err)
	}
	draComplete := draRes.ApplyTo(prev.Clone())
	fullComplete := fullRes.ApplyTo(nil)
	if !draComplete.EqualByTID(fullComplete) {
		t.Fatal("complete results differ")
	}
	dIns, dDel, dMod := draRes.Delta.Counts()
	fIns, fDel, fMod := fullRes.Delta.Counts()
	if dIns != fIns || dDel != fDel || dMod != fMod {
		t.Errorf("delta counts differ: DRA %d/%d/%d vs full %d/%d/%d", dIns, dDel, dMod, fIns, fDel, fMod)
	}
}

// TestGarbageCollectionSafetyProperty verifies Section 5.4: collecting
// delta rows at or below the oldest last-execution timestamp never
// changes any CQ's differential result.
func TestGarbageCollectionSafetyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	rSchema := relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)
	f := newFixture(t, map[string]relation.Schema{"r": rSchema})
	live := liveSet{}
	applyRandomBatch(t, f, rng, live, 8, 2)

	plan := f.plan(t, "SELECT * FROM r WHERE a > 100")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	horizon := f.lastTS

	applyRandomBatch(t, f, rng, live, 5, 2)

	// GC everything outside the active delta zone of this CQ.
	f.store.CollectGarbage(horizon)

	_, _ = f.reval(t, NewEngine(), plan, prev) // still equals full re-eval

	// But collecting INSIDE the zone (beyond lastTS) makes the inputs
	// unavailable, which the storage layer must refuse to serve silently:
	f.store.CollectGarbage(f.store.Now())
	if _, err := f.store.DeltaSince("r", horizon); err == nil {
		t.Error("reading a collected window should error, not return partial data")
	}
}

func TestStatsTuplesAccounting(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"r": relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)})
	var vals [][]relation.Value
	for i := 0; i < 100; i++ {
		vals = append(vals, []relation.Value{relation.Str("k"), relation.Float(float64(i))})
	}
	f.insert(t, "r", vals...)
	plan := f.plan(t, "SELECT * FROM r WHERE a > 50")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "r", []relation.Value{relation.Str("k"), relation.Float(200)})

	e := NewEngine()
	res, _ := f.reval(t, e, plan, prev)
	if res.Inserted().Len() != 1 {
		t.Fatal("expected one insertion")
	}
	if res.Stats.DeltaRows != 1 {
		t.Errorf("DeltaRows = %d, want 1", res.Stats.DeltaRows)
	}
	if res.Stats.PreTuplesScanned != 0 {
		t.Errorf("PreTuplesScanned = %d, want 0 for select-only", res.Stats.PreTuplesScanned)
	}
	// The whole point (Section 5.1): differential work is O(|Δ|), not
	// O(|R|). One delta row versus a 101-tuple base relation.
	_ = storage.ErrNoSuchTable
}
