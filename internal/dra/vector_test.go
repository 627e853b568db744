package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
)

// netKey identifies one row of a netted signed delta. netSigned emits at
// most one negative and one positive row per tid, so (tid, sign) is a
// unique key within one result.
type netKey struct {
	tid  relation.TID
	sign int
}

// assertSameNet compares two netted signed deltas as sets: same keys,
// value-equal rows (relation.Value.Equal semantics, so NULL kind tags —
// which the columnar path normalizes to the column type — don't count).
func assertSameNet(t *testing.T, label string, row, vec *delta.Signed) {
	t.Helper()
	index := func(s *delta.Signed) map[netKey][]relation.Value {
		m := make(map[netKey][]relation.Value, len(s.Rows))
		for _, r := range s.Rows {
			k := netKey{tid: r.TID, sign: r.Sign}
			if _, dup := m[k]; dup {
				t.Fatalf("%s: duplicate net key %+v", label, k)
			}
			m[k] = r.Values
		}
		return m
	}
	rm, vm := index(row), index(vec)
	if len(rm) != len(vm) {
		t.Fatalf("%s: row path emitted %d rows, vec path %d", label, len(rm), len(vm))
	}
	for k, rv := range rm {
		vv, ok := vm[k]
		if !ok {
			t.Fatalf("%s: vec path missing row %+v", label, k)
		}
		if !sameValues(rv, vv) {
			t.Fatalf("%s: values diverge at %+v:\nrow: %v\nvec: %v", label, k, rv, vv)
		}
	}
}

// vecQueries is the SPJ shape pool for the transcript-equivalence
// checks: selections, computed and duplicated projections, equi and
// non-equi joins, three-way joins.
var vecQueries = []string{
	"SELECT * FROM r WHERE a > 100",
	"SELECT s1, a FROM r WHERE a > 50 AND s1 != 'k0'",
	"SELECT s1, s1, a FROM r WHERE a > 30",
	"SELECT s1, a * 2 AS a2 FROM r WHERE a > 40",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2",
	"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
	"SELECT * FROM r, u WHERE r.s1 = u.s2 AND u.b < 150 AND r.a > 20",
	"SELECT * FROM r JOIN u ON r.a > u.b WHERE u.x < 5",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
	"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x",
}

func vecFixtureSchemas() map[string]relation.Schema {
	return map[string]relation.Schema{
		"r": relation.MustSchema(
			relation.Column{Name: "s1", Type: relation.TString},
			relation.Column{Name: "a", Type: relation.TFloat},
		),
		"u": relation.MustSchema(
			relation.Column{Name: "s2", Type: relation.TString},
			relation.Column{Name: "b", Type: relation.TFloat},
			relation.Column{Name: "x", Type: relation.TInt},
		),
		"w": relation.MustSchema(
			relation.Column{Name: "x", Type: relation.TInt},
			relation.Column{Name: "c", Type: relation.TFloat},
		),
	}
}

// TestVectorizedMatchesRowPath is the tentpole's transcript-equivalence
// gate inside the engine: over random histories, a row-path engine and
// a vectorized engine (each with its own prepared plan and operand
// cache) must produce identical net signed deltas round after round,
// across the flag matrix that changes which kernels run.
func TestVectorizedMatchesRowPath(t *testing.T) {
	type variant struct {
		name string
		mod  func(*Engine)
	}
	variants := []variant{
		{"default", func(e *Engine) {}},
		{"no-hash", func(e *Engine) { e.UseHashJoin = false }},
		{"no-heuristics", func(e *Engine) { e.UseHeuristics = false }},
		{"no-compact", func(e *Engine) { e.CompactDeltas = false }},
	}
	for qi, q := range vecQueries {
		for _, va := range variants {
			t.Run(fmt.Sprintf("q%d_%s", qi, va.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*31 + 7)))
				f := newFixture(t, vecFixtureSchemas())
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 8, 3)

				plan := f.plan(t, q)
				rowEng := NewEngine()
				rowEng.Vectorized = false
				va.mod(rowEng)
				vecEng := NewEngine()
				va.mod(vecEng)

				rowP, err := rowEng.Prepare(plan, StrategyTruthTable)
				if err != nil {
					t.Fatal(err)
				}
				vecP, err := vecEng.Prepare(plan, StrategyTruthTable)
				if err != nil {
					t.Fatal(err)
				}
				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()
				for round := 0; round < 6; round++ {
					applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
					ctx := f.ctx(t)
					ctx.Prev = prev
					ts := f.store.Now()
					rowRes, err := rowP.Step(ctx, ts)
					if err != nil {
						t.Fatalf("round %d row: %v", round, err)
					}
					vecRes, err := vecP.Step(ctx, ts)
					if err != nil {
						t.Fatalf("round %d vec: %v", round, err)
					}
					assertSameNet(t, fmt.Sprintf("round %d", round), rowRes.Signed, vecRes.Signed)
					prev = rowRes.ApplyTo(prev)
					f.mark()
				}
			})
		}
	}
}

// TestVectorizedPrebuiltWindow drives the zero-copy scan entry: the
// context carries prebuilt columnar windows (as the cq scheduler's
// shared window cache does), compacted once and shared read-only, and
// the result must match the row path over the same compacted windows.
// Two vectorized steps share the same prebuilt batches to prove the
// views never mutate them.
func TestVectorizedPrebuiltWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := newFixture(t, vecFixtureSchemas())
	live := liveSet{}
	applyRandomBatch(t, f, rng, live, 8, 3)

	q := "SELECT * FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 20"
	plan := f.plan(t, q)
	rowEng := NewEngine()
	rowEng.Vectorized = false
	vecEng := NewEngine()
	vecA, err := vecEng.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	vecB, err := vecEng.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	f.mark()
	pool := batch.NewPool()
	for round := 0; round < 5; round++ {
		applyRandomBatch(t, f, rng, live, 2, 3)
		ctx := f.ctx(t)
		// Compact once, as the shared window cache does, and attach the
		// columnar image of every window.
		ctx.Compacted = true
		ctx.Batches = make(map[string]*batch.Batch, len(ctx.Deltas))
		for name, d := range ctx.Deltas {
			cd := d.Compact()
			ctx.Deltas[name] = cd
			if b, ok := batch.FromDelta(pool, cd); ok {
				ctx.Batches[name] = b
			}
		}
		ctx.Prev = prev
		ts := f.store.Now()
		rowRes, err := rowEng.Reevaluate(plan, ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		aRes, err := vecA.Step(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		bRes, err := vecB.Step(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNet(t, fmt.Sprintf("round %d A", round), rowRes.Signed, aRes.Signed)
		assertSameNet(t, fmt.Sprintf("round %d B", round), rowRes.Signed, bRes.Signed)
		for _, b := range ctx.Batches {
			pool.Put(b)
		}
		prev = rowRes.ApplyTo(prev)
		f.mark()
	}
}

// TestVectorizedFallbackKeepsCachesCoherent forces the columnar path to
// bail out mid-refresh (storage validates arity only, so a wrong-kind
// value is insertable and unrepresentable in a typed column) and checks
// the refresh still answers through the row path — then, critically,
// that the NEXT refresh is also correct: the deferred-advance design
// means the fallback round left the prepared operand replicas
// untouched, so they must revalidate or rebuild rather than serve a
// half-advanced state.
func TestVectorizedFallbackKeepsCachesCoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := newFixture(t, vecFixtureSchemas())
	live := liveSet{}
	applyRandomBatch(t, f, rng, live, 8, 3)

	q := "SELECT * FROM r JOIN u ON r.s1 = u.s2"
	plan := f.plan(t, q)
	rowEng := NewEngine()
	rowEng.Vectorized = false
	vecEng := NewEngine()
	rowP, err := rowEng.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	vecP, err := vecEng.Prepare(plan, StrategyTruthTable)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	f.mark()

	step := func(round string) {
		ctx := f.ctx(t)
		ctx.Prev = prev
		ts := f.store.Now()
		rowRes, err := rowP.Step(ctx, ts)
		if err != nil {
			t.Fatalf("%s row: %v", round, err)
		}
		vecRes, err := vecP.Step(ctx, ts)
		if err != nil {
			t.Fatalf("%s vec: %v", round, err)
		}
		assertSameNet(t, round, rowRes.Signed, vecRes.Signed)
		prev = rowRes.ApplyTo(prev)
		f.mark()
	}

	// Round 1: clean data, vectorized path runs and advances its cache.
	applyRandomBatch(t, f, rng, live, 2, 3)
	step("clean-1")

	// Round 2: a kind-drifted row (string in the float column) makes the
	// window unrepresentable; the vectorized engine must fall back and
	// still match.
	tx := f.store.Begin()
	tid, err := tx.Insert("r", []relation.Value{relation.Str("k1"), relation.Str("oops")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	step("drifted")

	// Round 3: the drifted row leaves again; the vectorized cache,
	// untouched by the fallback round, must rebuild/revalidate and agree.
	tx = f.store.Begin()
	if err := tx.Delete("r", tid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	applyRandomBatch(t, f, rng, live, 2, 3)
	step("clean-2")
}

// TestVectorizedPathTaken guards against the silent-degradation
// failure mode: over clean typed data, vecEvaluate must actually run
// (ok=true) for every query shape, not quietly fall back to rows.
func TestVectorizedPathTaken(t *testing.T) {
	for qi, q := range vecQueries {
		rng := rand.New(rand.NewSource(int64(qi)))
		f := newFixture(t, vecFixtureSchemas())
		live := liveSet{}
		applyRandomBatch(t, f, rng, live, 6, 3)

		plan := f.plan(t, q)
		e := NewEngine()
		p, err := e.Prepare(plan, StrategyTruthTable)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		f.mark()
		applyRandomBatch(t, f, rng, live, 3, 3)
		ctx := f.ctx(t)
		ctx.Prev = prev
		var st Stats
		_, ok, err := e.vecEvaluate(p.root, ctx, f.store.Now(), &st)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if !ok {
			t.Fatalf("q%d: vectorized path fell back on clean typed data", qi)
		}
	}
}

// TestVectorizedCompleteResult chains vectorized refreshes only,
// maintaining the complete result, and checks each round against full
// re-evaluation — the paper's functional-equivalence statement for the
// columnar engine on its own.
func TestVectorizedCompleteResult(t *testing.T) {
	for qi, q := range vecQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + qi)))
			f := newFixture(t, vecFixtureSchemas())
			live := liveSet{}
			applyRandomBatch(t, f, rng, live, 8, 3)

			plan := f.plan(t, q)
			prev, err := InitialResult(plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			f.mark()
			for round := 0; round < 6; round++ {
				applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
				_, complete := f.reval(t, NewEngine(), plan, prev)
				prev = complete
				f.mark()
			}
		})
	}
}
