package bench

import (
	"fmt"
	"time"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/workload"
)

// E21 measures the columnar refresh path against the row-oriented
// engine it replaced, on the production-shaped hot path: prepared plans
// (compile once, operand caches maintained across refreshes), windows
// pre-compacted by the storage layer, and — on the columnar arm — the
// batch images the commit path and window cache hand every CQ of the
// round, so the measured step is exactly the per-refresh work a pushed
// refresh performs. Latency, heap allocations, and allocated bytes per
// step come from the same loop, exposing both the cycle win
// (column-at-a-time predicates, slice-move projection) and the
// allocation win (arena reuse instead of per-row Value slices). Each
// vectorized arm is checked for vacuity: it must record vector steps
// and zero fallbacks, otherwise it silently measured the row path.
func E21(scale Scale) (*Table, error) {
	rounds := 2 + 2*scale.Iterations
	t := &Table{
		ID:    "E21",
		Title: "columnar vs row refresh: typed kernels + pooled batch arena",
		Note: fmt.Sprintf("prepared refresh step; selection: |R| = %d stocks, %d-row update batches; join: |A|=|B|=|C| = %d; median of %d refreshes",
			scale.BaseRows, e21BatchRows(scale), scale.BaseRows/5, rounds),
		Header: []string{"workload", "path", "|dW| rows", "us/refresh", "speedup", "alloc ratio"},
	}
	workloads := []struct {
		name string
		run  func(vectorized bool) (e21Arm, error)
	}{
		{"selection", func(vec bool) (e21Arm, error) { return e21Select(scale, rounds, vec) }},
		{"3-way join", func(vec bool) (e21Arm, error) { return e21Join(scale, rounds, vec) }},
	}
	for _, w := range workloads {
		row, err := w.run(false)
		if err != nil {
			return nil, fmt.Errorf("%s row arm: %w", w.name, err)
		}
		col, err := w.run(true)
		if err != nil {
			return nil, fmt.Errorf("%s columnar arm: %w", w.name, err)
		}
		t.Rows = append(t.Rows,
			[]string{w.name, "row", fmt.Sprint(row.rows), us(row.lat), "-", "-"},
			[]string{w.name, "columnar", fmt.Sprint(col.rows), us(col.lat),
				ratio(col.lat, row.lat), allocRatio(col.allocs, row.allocs)})
		t.AllocsPerOp = append(t.AllocsPerOp, row.allocs, col.allocs)
		t.BytesPerOp = append(t.BytesPerOp, row.bytes, col.bytes)
	}
	return t, nil
}

// e21Arm is one (workload, engine path) measurement.
type e21Arm struct {
	lat    time.Duration
	allocs uint64
	bytes  uint64
	rows   int // signed window rows per refresh (last round)
}

// e21BatchRows sizes the selection workload's per-refresh update batch:
// a 4% window, the regime where the paper's differential argument holds
// and per-row evaluation cost dominates the refresh.
func e21BatchRows(scale Scale) int {
	k := scale.BaseRows / 25
	if k < 1 {
		k = 1
	}
	return k
}

// e21Engine builds the measured engine with a private registry so the
// vacuity check reads this arm's counters only.
func e21Engine(vectorized bool) (*dra.Engine, *obs.Registry) {
	reg := obs.NewRegistry()
	eng := dra.NewEngine()
	eng.Vectorized = vectorized
	eng.Instrument(reg)
	return eng, reg
}

// e21Prep mirrors the refresh manager's window handling outside the
// measured region: windows arrive pre-compacted (the window cache folds
// them once per round for every CQ), and on the columnar arm the
// context carries the prebuilt batch images the storage boundary shares
// across consumers. The returned context is what prep.Step sees.
func e21Prep(ctx *dra.Context, eng *dra.Engine, vectorized bool) {
	if eng.CompactDeltas {
		for name, d := range ctx.Deltas {
			ctx.Deltas[name] = d.Compact()
		}
		ctx.Compacted = true
	}
	if vectorized {
		ctx.Batches = make(map[string]*batch.Batch, len(ctx.Deltas))
		for name, d := range ctx.Deltas {
			if b, ok := batch.FromDelta(nil, d); ok {
				ctx.Batches[name] = b
			}
		}
	}
}

// e21Check fails a vectorized arm that never ran the columnar kernels.
func e21Check(vectorized bool, reg *obs.Registry) error {
	if !vectorized {
		return nil
	}
	snap := reg.Snapshot()
	if snap.Counter("dra.vector_steps") == 0 {
		return fmt.Errorf("vectorized arm took zero vector steps")
	}
	if n := snap.Counter("dra.vector_fallbacks"); n != 0 {
		return fmt.Errorf("vectorized arm fell back to the row path %d times", n)
	}
	return nil
}

func allocRatio(col, row uint64) string {
	if col == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(row)/float64(col))
}

// e21Select drives the Example-2 selection over modify-heavy update
// batches and measures only the prepared refresh step.
func e21Select(scale Scale, rounds int, vectorized bool) (e21Arm, error) {
	f, err := newEngineFixture(scale.BaseRows, 21, workload.DefaultMix, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		return e21Arm{}, err
	}
	eng, reg := e21Engine(vectorized)
	prep, err := eng.Prepare(f.plan, dra.StrategyAuto)
	if err != nil {
		return e21Arm{}, err
	}
	defer prep.Close()
	k := e21BatchRows(scale)
	var arm e21Arm
	times := make([]time.Duration, 0, rounds)
	var allocs, bytes uint64
	for r := 0; r < rounds; r++ {
		if err := f.gen.Batch(k); err != nil {
			return e21Arm{}, err
		}
		// Version counters must be snapshotted before the refresh
		// timestamp is issued (see storage.ChangeCounts).
		versions := f.store.ChangeCounts()
		ts := f.store.Now()
		ctx, err := f.ctx()
		if err != nil {
			return e21Arm{}, err
		}
		ctx.Versions = versions
		e21Prep(ctx, eng, vectorized)
		arm.rows = ctx.Deltas["stocks"].Len()
		var res *dra.Result
		lat, al, by, err := stopwatchAllocs(1, func() error {
			r, err := prep.Step(ctx, ts)
			res = r
			return err
		})
		if err != nil {
			return e21Arm{}, err
		}
		times = append(times, lat)
		allocs += al
		bytes += by
		f.prev = res.ApplyTo(f.prev)
		f.lastTS = ts
		f.store.CollectGarbage(f.lastTS)
	}
	if err := e21Check(vectorized, reg); err != nil {
		return e21Arm{}, err
	}
	sortDurations(times)
	arm.lat = times[len(times)/2]
	arm.allocs = allocs / uint64(rounds)
	arm.bytes = bytes / uint64(rounds)
	return arm, nil
}

// e21Join drives the E5 3-way join with two changed operands per
// refresh under the truth-table strategy (the path the columnar kernels
// vectorize; forcing it keeps a propagate re-pick out of the
// measurement): term evaluation (predicate + hash probe per signed row)
// is the hot loop, and the prepared operand caches keep partner index
// builds out of the measured step on both arms.
func e21Join(scale Scale, rounds int, vectorized bool) (e21Arm, error) {
	jf, err := newJoinFixture(scale.BaseRows/5, 21)
	if err != nil {
		return e21Arm{}, err
	}
	eng, reg := e21Engine(vectorized)
	prep, err := eng.Prepare(jf.plan, dra.StrategyTruthTable)
	if err != nil {
		return e21Arm{}, err
	}
	defer prep.Close()
	var arm e21Arm
	times := make([]time.Duration, 0, rounds)
	var allocs, bytes uint64
	for r := 0; r < rounds; r++ {
		if err := jf.touch(scale.BaseRows/100, "a", "c"); err != nil {
			return e21Arm{}, err
		}
		versions := jf.store.ChangeCounts()
		ts := jf.store.Now()
		ctx, err := jf.ctx()
		if err != nil {
			return e21Arm{}, err
		}
		ctx.Versions = versions
		e21Prep(ctx, eng, vectorized)
		arm.rows = 0
		for _, d := range ctx.Deltas {
			arm.rows += d.Len()
		}
		var res *dra.Result
		lat, al, by, err := stopwatchAllocs(1, func() error {
			r, err := prep.Step(ctx, ts)
			res = r
			return err
		})
		if err != nil {
			return e21Arm{}, err
		}
		times = append(times, lat)
		allocs += al
		bytes += by
		jf.prev = res.ApplyTo(jf.prev)
		jf.lastTS = ts
	}
	if err := e21Check(vectorized, reg); err != nil {
		return e21Arm{}, err
	}
	sortDurations(times)
	arm.lat = times[len(times)/2]
	arm.allocs = allocs / uint64(rounds)
	arm.bytes = bytes / uint64(rounds)
	return arm, nil
}
