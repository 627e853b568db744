package dra

import (
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/obs"
)

// spanSample thins per-Reevaluate trace recording to one span every
// spanSample calls (the first call always records). Counters and the
// latency histogram still see every call; only the span — the expensive
// part of the hook (allocation plus a mutexed ring write) — is sampled,
// keeping the instrumented hot path within a few percent of
// uninstrumented (BenchmarkObsOverhead).
const spanSample = 16

// Metrics is the engine's bundle of obs handles, resolved once at
// construction. Result.Stats keeps the per-call numbers (used by the
// benchmark harness); Metrics accumulates them across calls for the
// /stats surface. With a nil *Metrics the engine is uninstrumented: the
// only cost in Reevaluate is one nil check.
type Metrics struct {
	Reevaluations *obs.Counter // dra.reevaluations
	Terms         *obs.Counter // dra.terms_evaluated
	DeltaRows     *obs.Counter // dra.delta_rows_consumed
	PreTuples     *obs.Counter // dra.pre_tuples_scanned
	Differential  *obs.Counter // dra.differential_path
	Fallbacks     *obs.Counter // dra.fallback_path
	Skips         *obs.Counter // dra.skipped
	IndexHits     *obs.Counter // dra.index_cache.hits
	IndexMisses   *obs.Counter // dra.index_cache.misses
	Repicks       *obs.Counter // dra.strategy.repicks
	// VecSteps counts evaluations served by the columnar kernels;
	// VecFallbacks counts the ones that started vectorized but hit an
	// unrepresentable value and re-ran on the row path.
	VecSteps     *obs.Counter   // dra.vector_steps
	VecFallbacks *obs.Counter   // dra.vector_fallbacks
	Latency      *obs.Histogram // dra.reevaluate_ns
	PrepareNS    *obs.Histogram // dra.prepare_ns
	Traces       *obs.TraceLog  // per-Reevaluate spans, sampled

	// stratTruthTable / stratPropagate gauge how many live Prepared
	// plans currently run each strategy; re-picks move a unit between
	// gauges and Close decrements.
	stratTruthTable *obs.Gauge // dra.strategy.truth_table
	stratPropagate  *obs.Gauge // dra.strategy.propagate

	calls atomic.Uint64 // span sampling cursor
}

// strategyGauge maps a concrete (non-Auto) strategy to its gauge; nil
// for Auto or an unknown value.
func (m *Metrics) strategyGauge(s Strategy) *obs.Gauge {
	switch s {
	case StrategyTruthTable:
		return m.stratTruthTable
	case StrategyPropagate:
		return m.stratPropagate
	default:
		return nil
	}
}

// startSpan begins a sampled per-Reevaluate span; nil outside the
// sample.
func (m *Metrics) startSpan() *obs.Span {
	if m.calls.Add(1)%spanSample != 1 {
		return nil
	}
	return m.Traces.Start("dra.reevaluate")
}

// NewMetrics resolves the engine's instruments from a registry. A nil
// registry yields nil handles throughout — every update is a no-op —
// so callers can thread Config.Metrics straight through.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Reevaluations: reg.Counter("dra.reevaluations"),
		Terms:         reg.Counter("dra.terms_evaluated"),
		DeltaRows:     reg.Counter("dra.delta_rows_consumed"),
		PreTuples:     reg.Counter("dra.pre_tuples_scanned"),
		Differential:  reg.Counter("dra.differential_path"),
		Fallbacks:     reg.Counter("dra.fallback_path"),
		Skips:         reg.Counter("dra.skipped"),
		IndexHits:     reg.Counter("dra.index_cache.hits"),
		IndexMisses:   reg.Counter("dra.index_cache.misses"),
		Repicks:       reg.Counter("dra.strategy.repicks"),
		VecSteps:      reg.Counter("dra.vector_steps"),
		VecFallbacks:  reg.Counter("dra.vector_fallbacks"),
		Latency:       reg.Histogram("dra.reevaluate_ns"),
		PrepareNS:     reg.Histogram("dra.prepare_ns"),
		Traces:        reg.Traces(),

		stratTruthTable: reg.Gauge("dra.strategy.truth_table"),
		stratPropagate:  reg.Gauge("dra.strategy.propagate"),
	}
}

// Instrument attaches the engine to a registry (nil leaves it
// uninstrumented). Call before the engine is shared.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.Metrics = NewMetrics(reg)
}

// observe folds one finished Reevaluate into the cumulative instruments
// and records its span (span may be nil when tracing is off).
func (m *Metrics) observe(st Stats, span *obs.Span, elapsed time.Duration) {
	m.Reevaluations.Inc()
	m.Terms.Add(int64(st.Terms))
	m.DeltaRows.Add(int64(st.DeltaRows))
	m.PreTuples.Add(int64(st.PreTuplesScanned))
	m.IndexHits.Add(int64(st.IndexCacheHits))
	m.IndexMisses.Add(int64(st.IndexCacheMisses))
	switch {
	case st.Skipped:
		m.Skips.Inc()
	case st.FellBack:
		m.Fallbacks.Inc()
	default:
		m.Differential.Inc()
	}
	if span != nil {
		span.Fields = append(span.Fields,
			obs.Field{Key: "terms", Value: int64(st.Terms)},
			obs.Field{Key: "delta_rows", Value: int64(st.DeltaRows)},
			obs.Field{Key: "pre_tuples", Value: int64(st.PreTuplesScanned)},
		)
		if st.FellBack {
			span.SetField("fell_back", 1)
		}
		if st.Skipped {
			span.SetField("skipped", 1)
		}
		span.Finish()
	}
	m.Latency.Observe(elapsed)
}
