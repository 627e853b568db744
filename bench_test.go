// Benchmarks regenerating every experiment of EXPERIMENTS.md as
// testing.B targets. Each BenchmarkE* corresponds to the same-numbered
// experiment; cmd/cqbench prints the full tables, these give per-refresh
// costs under the Go benchmark harness.
//
//	go test -bench=. -benchmem
package continual_test

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/workload"
)

const benchBaseRows = 20_000

// benchFixture is a seeded single-table world with a pending update
// window ready for repeated re-evaluation.
type benchFixture struct {
	store  *storage.Store
	plan   algebra.Plan
	prev   *relation.Relation
	ctx    *dra.Context
	execTS vclock.Timestamp
}

func newBenchFixture(b *testing.B, rows, updates int, query string) *benchFixture {
	b.Helper()
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 1, workload.DefaultMix)
	if err := gen.Seed(rows); err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.PlanSQL(query, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	prev, err := dra.InitialResult(plan, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	lastTS := store.Now()
	if err := gen.Batch(updates); err != nil {
		b.Fatal(err)
	}
	d, err := store.DeltaSince("stocks", lastTS)
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{
		store: store,
		plan:  plan,
		prev:  prev,
		ctx: &dra.Context{
			Pre:    store.At(lastTS),
			Post:   store.Live(),
			Deltas: map[string]*delta.Delta{"stocks": d},
			LastTS: lastTS,
			Prev:   prev,
		},
		execTS: store.Now(),
	}
}

func (f *benchFixture) runDRA(b *testing.B, engine *dra.Engine) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Reevaluate(f.plan, f.ctx, f.execTS); err != nil {
			b.Fatal(err)
		}
	}
}

func (f *benchFixture) runFull(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dra.FullReevaluate(f.plan, f.store.Live(), f.prev, f.execTS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2SelectDRAvsFull: Example 2's query after one Example-1-sized
// transaction.
func BenchmarkE2SelectDRAvsFull(b *testing.B) {
	for _, mode := range []string{"DRA", "Full"} {
		b.Run(mode, func(b *testing.B) {
			f := newBenchFixture(b, benchBaseRows, 3, "SELECT * FROM stocks WHERE price > 120")
			if mode == "DRA" {
				f.runDRA(b, dra.NewEngine())
			} else {
				f.runFull(b)
			}
		})
	}
}

// BenchmarkE3UpdateFractionSweep: refresh cost vs |ΔR|/|R|.
func BenchmarkE3UpdateFractionSweep(b *testing.B) {
	for _, frac := range []float64{0.001, 0.01, 0.1, 0.5} {
		updates := int(frac * benchBaseRows)
		if updates < 1 {
			updates = 1
		}
		for _, mode := range []string{"DRA", "Full"} {
			b.Run(fmt.Sprintf("f=%g/%s", frac, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, updates, "SELECT * FROM stocks WHERE price > 120")
				if mode == "DRA" {
					f.runDRA(b, dra.NewEngine())
				} else {
					f.runFull(b)
				}
			})
		}
	}
}

// BenchmarkE4SelectivitySweep: refresh cost vs query selectivity at 1%
// updates.
func BenchmarkE4SelectivitySweep(b *testing.B) {
	for _, sel := range []float64{0.01, 0.1, 0.5} {
		threshold := 200 * (1 - sel)
		query := fmt.Sprintf("SELECT * FROM stocks WHERE price > %.3f", threshold)
		for _, mode := range []string{"DRA", "Full"} {
			b.Run(fmt.Sprintf("sel=%g/%s", sel, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, benchBaseRows/100, query)
				if mode == "DRA" {
					f.runDRA(b, dra.NewEngine())
				} else {
					f.runFull(b)
				}
			})
		}
	}
}

// joinBenchFixture mirrors internal/bench's 3-way join world.
func joinBenchFixture(b *testing.B, rows int, touched ...string) (*dra.Context, algebra.Plan, *storage.Store, *relation.Relation, vclock.Timestamp) {
	b.Helper()
	store := storage.NewStore()
	schemas := map[string]relation.Schema{
		"a": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "tag", Type: relation.TString}),
		"b": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "y", Type: relation.TInt}),
		"c": relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt}, relation.Column{Name: "name", Type: relation.TString}),
	}
	for name, schema := range schemas {
		if err := store.CreateTable(name, schema); err != nil {
			b.Fatal(err)
		}
	}
	tids := map[string][]relation.TID{}
	tx := store.Begin()
	for i := 0; i < rows; i++ {
		ta, _ := tx.Insert("a", []relation.Value{relation.Int(int64(i)), relation.Str("t")})
		tb, _ := tx.Insert("b", []relation.Value{relation.Int(int64(i)), relation.Int(int64(2 * i))})
		tc, _ := tx.Insert("c", []relation.Value{relation.Int(int64(2 * i)), relation.Str("c")})
		tids["a"] = append(tids["a"], ta)
		tids["b"] = append(tids["b"], tb)
		tids["c"] = append(tids["c"], tc)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.PlanSQL("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y", store.Live())
	if err != nil {
		b.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	prev, err := dra.InitialResult(plan, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	lastTS := store.Now()

	tx = store.Begin()
	for _, table := range touched {
		for i := 0; i < 10; i++ {
			live, _ := store.Contents(table)
			cur, _ := live.Lookup(tids[table][i])
			vals := append([]relation.Value(nil), cur.Values...)
			if vals[1].Kind == relation.TString {
				vals[1] = relation.Str(vals[1].AsString() + "'")
			} else {
				vals[1] = relation.Int(vals[1].AsInt() + 1)
			}
			if err := tx.Update(table, tids[table][i], vals); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	deltas := map[string]*delta.Delta{}
	for name := range schemas {
		d, err := store.DeltaSince(name, lastTS)
		if err != nil {
			b.Fatal(err)
		}
		deltas[name] = d
	}
	ctx := &dra.Context{
		Pre:    store.At(lastTS),
		Post:   store.Live(),
		Deltas: deltas,
		LastTS: lastTS,
		Prev:   prev,
	}
	return ctx, plan, store, prev, store.Now()
}

// BenchmarkE5JoinTruthTable: 3-way join, k changed operands → 2^k−1
// terms.
func BenchmarkE5JoinTruthTable(b *testing.B) {
	cases := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}}
	for _, touched := range cases {
		b.Run(fmt.Sprintf("k=%d/DRA", len(touched)), func(b *testing.B) {
			ctx, plan, _, _, ts := joinBenchFixture(b, 4000, touched...)
			engine := dra.NewEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Reevaluate(plan, ctx, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Full", func(b *testing.B) {
		_, plan, store, prev, ts := joinBenchFixture(b, 4000, "a")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dra.FullReevaluate(plan, store.Live(), prev, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6NetworkBytes: per-refresh wire bytes, delta vs full-result
// shipping. Bytes reported as custom metrics.
func BenchmarkE6NetworkBytes(b *testing.B) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 6, workload.DefaultMix)
	if err := gen.Seed(benchBaseRows / 2); err != nil {
		b.Fatal(err)
	}
	srv := remote.NewServer(store)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	const query = "SELECT * FROM stocks WHERE price > 120"

	b.Run("delta", func(b *testing.B) {
		client, err := remote.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = client.Close() }()
		mirror, err := remote.NewMirrorCQ(client, query)
		if err != nil {
			b.Fatal(err)
		}
		start := client.BytesRead()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(10); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := mirror.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(client.BytesRead()-start)/float64(b.N), "wireB/op")
	})

	b.Run("full", func(b *testing.B) {
		client, err := remote.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = client.Close() }()
		start := client.BytesRead()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(10); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := client.Query(query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(client.BytesRead()-start)/float64(b.N), "wireB/op")
	})
}

// BenchmarkE7ClientScalability: server tuples scanned per refresh round
// for 8 clients, full-shipping vs delta-shipping.
func BenchmarkE7ClientScalability(b *testing.B) {
	const nClients = 8
	const query = "SELECT * FROM stocks WHERE price > 120"
	setup := func(b *testing.B) (*storage.Store, *remote.Server, *workload.Stocks, []*remote.Client) {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 7, workload.DefaultMix)
		if err := gen.Seed(benchBaseRows / 2); err != nil {
			b.Fatal(err)
		}
		srv := remote.NewServer(store)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		clients := make([]*remote.Client, nClients)
		for i := range clients {
			c, err := remote.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = c.Close() })
			clients[i] = c
		}
		return store, srv, gen, clients
	}

	b.Run("full-shipping", func(b *testing.B) {
		_, srv, gen, clients := setup(b)
		before := srv.Stats().TuplesExecuted
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(10); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, c := range clients {
				if _, _, err := c.Query(query); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(srv.Stats().TuplesExecuted-before)/float64(b.N), "srvTuples/op")
	})

	b.Run("delta-shipping", func(b *testing.B) {
		_, srv, gen, clients := setup(b)
		mirrors := make([]*remote.MirrorCQ, len(clients))
		for i, c := range clients {
			m, err := remote.NewMirrorCQ(c, query)
			if err != nil {
				b.Fatal(err)
			}
			mirrors[i] = m
		}
		before := srv.Stats().TuplesExecuted
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(10); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, m := range mirrors {
				if _, err := m.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(srv.Stats().TuplesExecuted-before)/float64(b.N), "srvTuples/op")
	})
}

// BenchmarkE8TriggerEval: differential trigger evaluation vs base scan.
func BenchmarkE8TriggerEval(b *testing.B) {
	store := storage.NewStore()
	if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewAccounts(store, "accounts", 8)
	for i := 0; i < benchBaseRows; i++ {
		if err := gen.Deposit(0); err != nil {
			b.Fatal(err)
		}
	}
	mark := store.Now()
	if err := gen.Activity(100); err != nil {
		b.Fatal(err)
	}
	window, err := store.DeltaSince("accounts", mark)
	if err != nil {
		b.Fatal(err)
	}
	amountExpr, _ := sql.ParseExpr("amount")

	b.Run("differential", func(b *testing.B) {
		acct, err := epsilon.NewAccountant(epsilon.Spec{Expr: amountExpr, Bound: 1e18}, workload.AccountSchema())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acct.Reset()
			if err := acct.Observe(window); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("base-scan", func(b *testing.B) {
		plan, err := algebra.PlanSQL("SELECT SUM(amount) AS total FROM accounts", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := algebra.NewExecutor(store.Live()).Execute(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9GC: cost of one garbage collection pass over a large
// accumulated differential relation.
func BenchmarkE9GC(b *testing.B) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 9, workload.DefaultMix)
	if err := gen.Seed(benchBaseRows / 2); err != nil {
		b.Fatal(err)
	}
	if err := gen.Batch(benchBaseRows / 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Collect nothing (horizon 0): measures the scan; the truncation
		// itself is a copy bounded by the same size.
		store.CollectGarbage(0)
	}
}

// BenchmarkE10EpsilonSweep: refreshes per 200-op stream at two bounds.
func BenchmarkE10EpsilonSweep(b *testing.B) {
	for _, bound := range []float64{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("eps=%.0fk", bound/1e3), func(b *testing.B) {
			refreshes := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := storage.NewStore()
				if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
					b.Fatal(err)
				}
				mgr := cq.NewManager(store)
				on, _ := sql.ParseExpr("amount")
				if _, err := mgr.Register(cq.Def{
					Name:    "banksum",
					Query:   "SELECT SUM(amount) AS total FROM accounts",
					Trigger: sql.TriggerSpec{Kind: sql.TriggerEpsilon, Bound: bound, On: on},
				}); err != nil {
					b.Fatal(err)
				}
				gen := workload.NewAccounts(store, "accounts", 10)
				b.StartTimer()
				for op := 0; op < 200; op++ {
					if err := gen.Activity(1); err != nil {
						b.Fatal(err)
					}
					n, err := mgr.Poll()
					if err != nil {
						b.Fatal(err)
					}
					refreshes += n
				}
				b.StopTimer()
				_ = mgr.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(refreshes)/float64(b.N), "refreshes/op")
		})
	}
}

// BenchmarkE11AppendOnly: per-step cost of the Terry-style baseline vs
// DRA on an append-only stream.
func BenchmarkE11AppendOnly(b *testing.B) {
	setup := func(b *testing.B) (*storage.Store, algebra.Plan, *workload.Stocks) {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 11, workload.AppendOnlyMix)
		if err := gen.Seed(benchBaseRows / 2); err != nil {
			b.Fatal(err)
		}
		plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 120", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		return store, algebra.Optimize(plan), gen
	}
	b.Run("append-only-baseline", func(b *testing.B) {
		store, plan, gen := setup(b)
		ao, err := baseline.NewAppendOnly(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		last := store.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
			d, err := store.DeltaSince("stocks", last)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ao.Step(map[string]*delta.Delta{"stocks": d}, store.At(last), store.Live(), store.Now()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			last = store.Now()
			b.StartTimer()
		}
	})
	b.Run("dra", func(b *testing.B) {
		store, plan, gen := setup(b)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		engine := dra.NewEngine()
		last := store.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
			d, err := store.DeltaSince("stocks", last)
			if err != nil {
				b.Fatal(err)
			}
			ctx := &dra.Context{
				Pre: store.At(last), Post: store.Live(),
				Deltas: map[string]*delta.Delta{"stocks": d},
				LastTS: last, Prev: prev,
			}
			b.StartTimer()
			res, err := engine.Reevaluate(plan, ctx, store.Now())
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			prev = res.ApplyTo(prev)
			last = store.Now()
			b.StartTimer()
		}
	})
}

// BenchmarkE12IrrelevantUpdates: refresh cost when the update window is
// entirely irrelevant — the paper's comparison of the refinement vs
// complete re-evaluation. The §5.2 test costs nothing of its own: the
// differential evaluation filters the window and stops there.
func BenchmarkE12IrrelevantUpdates(b *testing.B) {
	mk := func(b *testing.B) *benchFixture {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 12, workload.DefaultMix)
		if err := gen.Seed(benchBaseRows); err != nil {
			b.Fatal(err)
		}
		plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 190", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		lastTS := store.Now()
		// Insert-only batch strictly below the threshold: provably
		// irrelevant. (A modify-heavy batch would carry old halves from
		// the seeded table that can exceed the threshold.)
		tx := store.Begin()
		for i := 0; i < 200; i++ {
			if _, err := tx.Insert("stocks", []relation.Value{
				relation.Str("E12"), relation.Float(float64(10 + i%140)), relation.Int(int64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		d, err := store.DeltaSince("stocks", lastTS)
		if err != nil {
			b.Fatal(err)
		}
		return &benchFixture{
			store: store, plan: plan, prev: prev,
			ctx: &dra.Context{
				Pre: store.At(lastTS), Post: store.Live(),
				Deltas: map[string]*delta.Delta{"stocks": d},
				LastTS: lastTS, Prev: prev,
			},
			execTS: store.Now(),
		}
	}
	b.Run("refinement-on", func(b *testing.B) {
		f := mk(b)
		f.runDRA(b, dra.NewEngine())
	})
	b.Run("full-reevaluation", func(b *testing.B) {
		f := mk(b)
		f.runFull(b)
	})
}

// BenchmarkE13AssembleComplete: complete-result maintenance at high
// selectivity (large maintained result).
func BenchmarkE13AssembleComplete(b *testing.B) {
	for _, mode := range []string{"DRA", "Full"} {
		b.Run(mode, func(b *testing.B) {
			f := newBenchFixture(b, benchBaseRows, 20, "SELECT * FROM stocks WHERE price > 10")
			if mode == "DRA" {
				f.runDRA(b, dra.NewEngine())
			} else {
				f.runFull(b)
			}
		})
	}
}

// BenchmarkA1Heuristics: term-ordering heuristics on/off.
func BenchmarkA1Heuristics(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("heuristics=%v", on), func(b *testing.B) {
			ctx, plan, _, _, ts := joinBenchFixture(b, 4000, "a", "c")
			engine := dra.NewEngine()
			engine.UseHeuristics = on
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Reevaluate(plan, ctx, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2Compaction: delta compaction on/off over a churn-heavy
// window.
func BenchmarkA2Compaction(b *testing.B) {
	mk := func(b *testing.B) *benchFixture {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 21, workload.DefaultMix)
		if err := gen.Seed(1000); err != nil {
			b.Fatal(err)
		}
		plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 120", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		lastTS := store.Now()
		for round := 0; round < 50; round++ { // churn
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
		}
		d, err := store.DeltaSince("stocks", lastTS)
		if err != nil {
			b.Fatal(err)
		}
		return &benchFixture{
			store: store, plan: plan, prev: prev,
			ctx: &dra.Context{
				Pre: store.At(lastTS), Post: store.Live(),
				Deltas: map[string]*delta.Delta{"stocks": d},
				LastTS: lastTS, Prev: prev,
			},
			execTS: store.Now(),
		}
	}
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("compaction=%v", on), func(b *testing.B) {
			f := mk(b)
			engine := dra.NewEngine()
			engine.CompactDeltas = on
			f.runDRA(b, engine)
		})
	}
}

// BenchmarkA3JoinAlgo: hash vs nested-loop joins inside differential
// terms.
func BenchmarkA3JoinAlgo(b *testing.B) {
	for _, hash := range []bool{true, false} {
		b.Run(fmt.Sprintf("hash=%v", hash), func(b *testing.B) {
			ctx, plan, _, _, ts := joinBenchFixture(b, 2000, "a")
			engine := dra.NewEngine()
			engine.UseHashJoin = hash
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Reevaluate(plan, ctx, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA4IncrementalAggregates: the bank-sum refresh via incremental
// per-group state vs the Propagate fallback.
func BenchmarkA4IncrementalAggregates(b *testing.B) {
	setup := func(b *testing.B) (*storage.Store, algebra.Plan, *dra.Context, vclock.Timestamp) {
		store := storage.NewStore()
		if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewAccounts(store, "accounts", 44)
		for i := 0; i < benchBaseRows; i++ {
			if err := gen.Deposit(0); err != nil {
				b.Fatal(err)
			}
		}
		plan, err := algebra.PlanSQL("SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		lastTS := store.Now()
		if err := gen.Activity(50); err != nil {
			b.Fatal(err)
		}
		window, err := store.DeltaSince("accounts", lastTS)
		if err != nil {
			b.Fatal(err)
		}
		ctx := &dra.Context{
			Pre:    store.At(lastTS),
			Post:   store.Live(),
			Deltas: map[string]*delta.Delta{"accounts": window},
			LastTS: lastTS,
			Prev:   prev,
		}
		return store, plan, ctx, store.Now()
	}

	b.Run("incremental", func(b *testing.B) {
		store, plan, ctx, ts := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A maintainer folds state destructively; rebuild per iteration
			// from the pre-window snapshot so each Step sees the same work.
			ia, err := dra.NewIncrementalAggregate(dra.NewEngine(), plan, store.At(ctx.LastTS))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ia.Step(ctx, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("propagate-fallback", func(b *testing.B) {
		_, plan, ctx, ts := setup(b)
		engine := dra.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Reevaluate(plan, ctx, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead measures the cost of the obs instrumentation on
// the hot refresh path: the E2 selection refresh with the engine
// attached to a live registry vs fully uninstrumented (Metrics=nil).
// The instrumented path should stay within a few percent — per refresh
// it adds a handful of atomic adds, one histogram slot claim, and a
// span record.
func BenchmarkObsOverhead(b *testing.B) {
	const query = "SELECT * FROM stocks WHERE price > 120"
	b.Run("uninstrumented", func(b *testing.B) {
		f := newBenchFixture(b, benchBaseRows, 3, query)
		f.runDRA(b, dra.NewEngine())
	})
	b.Run("instrumented", func(b *testing.B) {
		f := newBenchFixture(b, benchBaseRows, 3, query)
		engine := dra.NewEngine()
		engine.Instrument(obs.NewRegistry())
		f.runDRA(b, engine)
	})
}
