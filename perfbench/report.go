package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// endToEnd lists the metrics every workload reports with --trace 0.
// They are the ones BENCHMARK.json bounds, so each must apply to every
// workload, never read 0, and repeat within its bound. The p99
// latencies are printed but not bounded: on the 2-vCPU host their
// spread over ten seeds reached 0.32 (alerts-push notify at 100
// commits/s, which includes the open-loop generator's GC-induced
// lateness) and 0.33 (rollup-durable commit, where about 1% of commits
// wait for the interval fsync that holds the WAL lock).
var endToEnd = []string{
	"setup_s", "notify_p50_ms", "rows_per_s", "commit_p50_us",
	"cpu_us_per_row", "heap_mb",
}

// perLayer lists the metrics every workload reports with --trace 1,
// with their units. A layer a workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"storage.commit_us_p50", "us"}, {"storage.window_cache_hit_ratio", "ratio"},
	{"storage.delta_rows_retained_max", "count"},
	{"wal.append_us_per_commit", "us"}, {"wal.bytes_per_row", "B"}, {"wal.fsyncs", "count"},
	{"wal.checkpoint_ms_total", "ms"},
	{"durable.records_replayed", "count"},
	{"push.refreshes_per_commit", "ratio"}, {"push.coalesced_frac", "ratio"},
	{"push.queue_depth_max", "count"}, {"push.overflows", "count"},
	{"cq.refresh_ms_per_op", "ms"}, {"cq.useful_refresh_frac", "ratio"},
	{"cq.template.steps_per_commit", "ratio"}, {"cq.template.cand_per_match", "ratio"},
	{"cq.materialize.rows_per_commit", "ratio"}, {"cq.register_ms_p50", "ms"},
	{"dra.step_ms_per_op", "ms"}, {"dra.pre_tuples_per_delta_row", "ratio"},
	{"dra.terms_per_step", "ratio"}, {"dra.index_cache_hit_ratio", "ratio"},
	{"dra.strategy.truth_table", "count"}, {"dra.strategy.incremental", "count"},
	{"dra.strategy.propagate", "count"}, {"dra.strategy.repicks", "count"},
	{"dra.vector_fallback_frac", "ratio"}, {"dra.skipped_frac", "ratio"},
	{"dra.prepare_ms_total", "ms"},
	{"go.allocs_per_row", "count"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms_total", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"span.register.self_ms_per_op", "ms"}, {"span.commit.self_us_per_op", "us"},
	{"span.poll.self_ms_per_op", "ms"}, {"span.flush.self_ms_per_op", "ms"},
	{"span.callback.self_us_per_op", "us"}, {"span.open.self_ms_per_op", "ms"},
	{"trace.spans", "count"}, {"trace.overhead_notify_p50_ms", "ms"},
	{"trace.overhead_commit_p50_us", "us"},
}

// metric is one reported number with its unit and, for timings, the
// number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// envBlock is the ordered environment description printed with every
// result.
type envBlock struct{ keys, vals []string }

func (e *envBlock) add(k, v string) {
	e.keys = append(e.keys, k)
	e.vals = append(e.vals, v)
}

// report is one workload run's outcome.
type report struct {
	workload string
	env      envBlock
	// e2e holds every metric a user of the engine would see, including
	// the workload-specific ones (round_*, recovery_s, fail_frac) that
	// are printed but not part of the JSON line.
	e2e   map[string]metric
	layer map[string]float64
	// attempted counts operations tried: commits, rounds and oracle
	// checks; failed counts the ones that erred, lost a notification or
	// mismatched.
	attempted, failed int
	oracleChecks      int
	oracleMismatches  int
	notes             []string
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]metric{}, layer: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.e2e[name] = metric{Value: v, Unit: unit, samples: n}
}

// setLayer records a per-layer metric; its unit comes from perLayer.
// An undefined ratio (nothing to divide by) reads 0.
func (r *report) setLayer(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layer[name] = v
}

// setTimings records the p50 and p99 of a phase's latencies under
// <prefix>_p50_<unit> and <prefix>_p99_<unit>. The p50 is the median
// over the phase's slices (see phaseStats.p50); the p99 is taken over
// every sample, with the sample count beside it.
func (r *report) setTimings(prefix string, s *phaseStats, l *latencies, unit string) {
	scale := map[string]float64{"ms": 1e6, "us": 1e3, "s": 1e9}[unit]
	r.set(prefix+"_p50_"+unit, float64(s.p50(l))/scale, unit, len(l.ds))
	r.set(prefix+"_p99_"+unit, float64(quantile(l.ds, 0.99))/scale, unit, len(l.ds))
}

// oracle records the outcome of one oracle pass over checked queries.
func (r *report) oracle(checked, mismatches int, first error) {
	r.oracleChecks += checked
	r.oracleMismatches += mismatches
	r.attempted += checked
	r.failed += mismatches
	if first != nil {
		r.note("oracle: %v", first)
	}
}

// finish derives fail_frac once every operation has been counted.
func (r *report) finish() {
	r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
}

// correct reports whether the oracle ran and no operation failed.
func (r *report) correct() bool {
	return r.failed == 0 && r.oracleChecks > 0
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable block and then the JSON line.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== perfbench %s ==\n", r.workload)
	for i, k := range r.env.keys {
		fmt.Fprintf(w, "env %-22s %s\n", k, r.env.vals[i])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	names := make([]string, 0, len(r.e2e))
	for k := range r.e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.e2e[k]
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Fprintf(w, "metric %-22s %14.4f %-6s%s\n", k, m.Value, m.Unit, n)
	}
	if traced {
		for _, l := range perLayer {
			fmt.Fprintf(w, "layer  %-34s %14.4f %s\n", l.name, r.layer[l.name], l.unit)
		}
	}
	fmt.Fprintf(w, "oracle checks=%d mismatches=%d  attempted=%d failed=%d\n",
		r.oracleChecks, r.oracleMismatches, r.attempted, r.failed)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, l := range perLayer {
			out.Metrics[l.name] = metric{Value: r.layer[l.name], Unit: l.unit}
		}
	} else {
		for _, k := range endToEnd {
			out.Metrics[k] = r.e2e[k]
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Every value is a finite float or a string; Marshal cannot fail.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
