package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
)

// stepPrepared runs one prepared refresh with the full protocol the cq
// manager uses — change-counter snapshot BEFORE the execution timestamp
// — maintains the complete result, and asserts it against full
// re-evaluation. prev is consumed (mutated); f.lastTS advances to the
// execution timestamp, so consecutive calls exercise the cache's
// primary (ts) validation tier.
func stepPrepared(t *testing.T, f *fixture, p *Prepared, prev *relation.Relation) (*Result, *relation.Relation) {
	t.Helper()
	versions := f.store.ChangeCounts()
	execTS := f.store.Now()
	ctx := f.ctx(t)
	ctx.Prev = prev
	ctx.Versions = versions
	res, err := p.Step(ctx, execTS)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	complete := res.ApplyTo(prev)
	want, err := algebra.NewExecutor(f.store.Live()).Execute(p.plan)
	if err != nil {
		t.Fatal(err)
	}
	if !complete.EqualByTID(want) {
		t.Fatalf("prepared %v result diverges from full re-evaluation.\nprepared:\n%s\nfull:\n%s",
			p.Strategy(), complete, want)
	}
	f.lastTS = execTS
	return res, complete
}

// TestPreparedStrategyEquivalenceProperty extends the package's central
// theorem check to the prepared pipeline: over random multi-table
// histories and SPJ query shapes, every refresh strategy — cached truth
// table, propagate, and the adaptive auto picker — must produce exactly the complete re-evaluation result, round after
// round against the SAME long-lived Prepared (so cross-refresh cache
// state is actually exercised).
func TestPreparedStrategyEquivalenceProperty(t *testing.T) {
	queries := []string{
		"SELECT * FROM r WHERE a > 100",
		"SELECT s1, a FROM r WHERE a > 50 AND s1 != 'k0'",
		"SELECT * FROM r JOIN u ON r.s1 = u.s2",
		"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
		"SELECT * FROM r, u WHERE r.s1 = u.s2 AND u.b < 150 AND r.a > 20",
		"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
		"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x",
	}
	strategies := []Strategy{StrategyAuto, StrategyTruthTable, StrategyPropagate}

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
		for _, strat := range strategies {
			t.Run(fmt.Sprintf("q%d_%v", qi, strat), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*1000) + int64(strat)))
				f := newFixture(t, map[string]relation.Schema{"r": rSchema, "u": uSchema, "w": wSchema})
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 10, 3)

				plan := f.plan(t, q)
				e := NewEngine()
				p, err := e.Prepare(plan, strat)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()

				for round := 0; round < 12; round++ {
					applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
					_, complete := stepPrepared(t, f, p, prev)
					prev = complete
				}
			})
		}
	}
}

// TestPreparedCacheHitsAcrossRefreshes: consecutive refreshes of the
// same prepared join serve unchanged operand pre-states from the
// cross-refresh cache (hits), instead of re-executing them against a
// historical snapshot per refresh (the transient path, all misses). An
// irrelevant window in between (Section 5.2) runs no term and touches
// no replica, yet still moves the replicas forward, so the next
// relevant refresh is served by cache hits alone.
func TestPreparedCacheHitsAcrossRefreshes(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75), sv("MAC", 117))
	f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(10)},
		[]relation.Value{relation.Str("IBM"), relation.Int(20)},
	)
	plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym WHERE s.price > 50")
	e := NewEngine()
	p, err := e.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()

	// First refresh: only trades changed; the stocks pre-state must be
	// built once (miss).
	f.insert(t, "trades", []relation.Value{relation.Str("MAC"), relation.Int(5)})
	res1, complete := stepPrepared(t, f, p, prev)
	if res1.Stats.IndexCacheHits != 0 {
		t.Errorf("first refresh hits = %d, want 0 (cold cache)", res1.Stats.IndexCacheHits)
	}
	if res1.Stats.IndexCacheMisses == 0 {
		t.Error("first refresh should record the replica/index builds as misses")
	}

	// Second refresh, trades again: the stocks replica is exactly the
	// one advanced last round — a hit, with zero pre-state scanning.
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(7)})
	res2, _ := stepPrepared(t, f, p, complete)
	if res2.Stats.IndexCacheHits == 0 {
		t.Error("second refresh should hit the operand cache")
	}
	if res2.Stats.PreTuplesScanned != 0 {
		t.Errorf("second refresh scanned %d pre tuples, want 0 (served from cache)", res2.Stats.PreTuplesScanned)
	}

	// Third refresh: a stock below the price filter is irrelevant. The
	// single evaluation pass filters it out, runs no term, and consults
	// no replica.
	f.insert(t, "stocks", sv("LOW", 10))
	res3, complete := stepPrepared(t, f, p, complete)
	if !res3.Stats.Skipped {
		t.Error("irrelevant window should be reported as skipped")
	}
	if res3.Stats.Terms != 0 {
		t.Errorf("irrelevant window evaluated %d terms, want 0", res3.Stats.Terms)
	}
	if res3.Stats.IndexCacheMisses != 0 {
		t.Errorf("irrelevant window recorded %d cache misses, want 0", res3.Stats.IndexCacheMisses)
	}

	// Fourth refresh, trades again: the replicas moved through the
	// skipped window, so the stocks pre-state is a hit with no rebuild.
	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(4)})
	res4, _ := stepPrepared(t, f, p, complete)
	if res4.Stats.Skipped {
		t.Error("relevant window reported as skipped")
	}
	if res4.Stats.IndexCacheHits == 0 || res4.Stats.IndexCacheMisses != 0 {
		t.Errorf("refresh after the skipped window: hits=%d misses=%d, want hits only",
			res4.Stats.IndexCacheHits, res4.Stats.IndexCacheMisses)
	}
	if res4.Stats.PreTuplesScanned != 0 {
		t.Errorf("refresh after the skipped window scanned %d pre tuples, want 0", res4.Stats.PreTuplesScanned)
	}
}

// TestPreparedCacheVersionRevalidation exercises the secondary
// validation tier: when refreshes are not consecutive (the replica's ts
// lags LastTS), an unchanged per-table change counter must still prove
// the replica current — and a changed counter must force a rebuild, even
// if the operand's delta window happens to be empty for the join's key
// range.
func TestPreparedCacheVersionRevalidation(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{
		"stocks": stockSchema(), "trades": tradeSchema, "other": stockSchema(),
	})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(10)})
	plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
	e := NewEngine()
	p, err := e.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()

	// Warm the cache.
	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(3)})
	_, complete := stepPrepared(t, f, p, prev)

	// Advance time with commits to an UNRELATED table, then refresh
	// with a gap: lastTS moves past the replicas' ts, so only the
	// change counter can validate them.
	f.insert(t, "other", sv("noise", 1))
	f.mark() // deliberate gap: replicas' ts != new LastTS
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(9)})
	res, complete := stepPrepared(t, f, p, complete)
	if res.Stats.IndexCacheHits == 0 {
		t.Error("unchanged stocks counter across the gap should revalidate the replica")
	}

	// Now touch stocks inside a gap: the counter differs, the replica
	// must be rebuilt (miss), and the result must stay exact.
	f.insert(t, "stocks", sv("NEW", 200))
	f.mark()
	f.insert(t, "trades", []relation.Value{relation.Str("NEW"), relation.Int(4)})
	res2, _ := stepPrepared(t, f, p, complete)
	if res2.Stats.IndexCacheMisses == 0 {
		t.Error("changed stocks counter must force a replica rebuild")
	}
}

// TestPrepareForcedStrategyErrors: a forced strategy the plan cannot run
// is a loud error at preparation, never a silent demotion.
func TestPrepareForcedStrategyErrors(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("DEC", 150))
	aggPlan := f.plan(t, "SELECT MIN(price) AS m FROM stocks")
	e := NewEngine()

	if _, err := e.Prepare(aggPlan, StrategyTruthTable); err == nil {
		t.Error("truth table on a non-SPJ plan must error")
	}
	p, err := e.Prepare(aggPlan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Strategy() != StrategyPropagate {
		t.Errorf("auto on non-SPJ = %v, want propagate", p.Strategy())
	}
}

// TestPreparedAdaptiveRepick drives the cost model both ways: a large
// equi-joined base with small deltas stays on the truth table, while
// churn rewriting most of the base every round forces propagate.
func TestPreparedAdaptiveRepick(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	t.Run("stays_truth_table", func(t *testing.T) {
		f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
		var stocks, trades [][]relation.Value
		for i := 0; i < 64; i++ {
			stocks = append(stocks, sv(fmt.Sprintf("S%d", i), float64(i)))
			trades = append(trades, []relation.Value{relation.Str(fmt.Sprintf("S%d", i)), relation.Int(int64(i))})
		}
		f.insert(t, "stocks", stocks...)
		f.insert(t, "trades", trades...)
		plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
		e := NewEngine()
		p, err := e.Prepare(plan, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.Strategy() != StrategyTruthTable {
			t.Fatalf("initial auto strategy = %v, want truth-table", p.Strategy())
		}
		prev, _ := InitialResult(plan, f.store.Live())
		f.mark()
		for i := 0; i < 2*repickEvery; i++ {
			f.insert(t, "trades", []relation.Value{relation.Str(fmt.Sprintf("S%d", i%64)), relation.Int(999)})
			_, complete := stepPrepared(t, f, p, prev)
			prev = complete
		}
		if p.Strategy() != StrategyTruthTable {
			t.Errorf("after %d small-delta refreshes over a %d-row base: strategy = %v, want truth-table",
				2*repickEvery, 2*64, p.Strategy())
		}
	})
	t.Run("to_propagate", func(t *testing.T) {
		f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
		tids := f.insert(t, "stocks", sv("A", 1), sv("B", 2), sv("C", 3), sv("D", 4))
		plan := f.plan(t, "SELECT * FROM stocks WHERE price >= 0")
		e := NewEngine()
		p, err := e.Prepare(plan, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		prev, _ := InitialResult(plan, f.store.Live())
		f.mark()
		for i := 0; i < 2*repickEvery; i++ {
			// Rewrite the whole base every round: delta/base ratio 1.
			tx := f.store.Begin()
			for _, tid := range tids {
				if err := tx.Update("stocks", tid, sv(fmt.Sprintf("R%d", i), float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			_, complete := stepPrepared(t, f, p, prev)
			prev = complete
		}
		if p.Strategy() != StrategyPropagate {
			t.Errorf("after full-rewrite rounds: strategy = %v, want propagate", p.Strategy())
		}
	})
}

// TestPreparedStrategyGauges: preparation, re-picks, and Close keep the
// per-strategy gauges consistent with the set of live prepared plans.
func TestPreparedStrategyGauges(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("DEC", 150))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	reg := obs.NewRegistry()
	e := NewEngine()
	e.Instrument(reg)

	p, err := e.Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("dra.strategy.truth_table").Value(); got != 1 {
		t.Errorf("truth_table gauge after prepare = %d, want 1", got)
	}
	p.Close()
	if got := reg.Gauge("dra.strategy.truth_table").Value(); got != 0 {
		t.Errorf("truth_table gauge after close = %d, want 0", got)
	}
	// Closing twice must not double-decrement.
	p.Close()
	if got := reg.Gauge("dra.strategy.truth_table").Value(); got != 0 {
		t.Errorf("truth_table gauge after double close = %d, want 0", got)
	}
}

// TestPlanFingerprintDistinguishesPlans: the fingerprint is stable for
// one plan and separates different shapes and schemas.
func TestPlanFingerprintDistinguishesPlans(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	p1 := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	p1again := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	p2 := f.plan(t, "SELECT * FROM stocks WHERE price > 200")
	if algebra.PlanFingerprint(p1) != algebra.PlanFingerprint(p1again) {
		t.Error("same query must fingerprint identically")
	}
	if algebra.PlanFingerprint(p1) == algebra.PlanFingerprint(p2) {
		t.Error("different predicates must fingerprint differently")
	}
}
