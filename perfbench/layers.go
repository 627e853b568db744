package main

import (
	"runtime"
	"syscall"
	"time"

	"github.com/diorama/continual/internal/obs"
)

// phase brackets a timed phase: the engine's obs registry and the Go
// runtime's counters are read at both ends, and per-layer metrics are
// the differences. Histograms contribute their lifetime Count and Sum,
// never their windowed quantiles.
type phase struct {
	reg       *obs.Registry
	before    obs.Snapshot
	after     obs.Snapshot
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	// cpu is the process's user+system CPU time over the phase.
	cpu time.Duration
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginPhase(reg *obs.Registry) *phase {
	p := &phase{reg: reg}
	runtime.ReadMemStats(&p.memBefore)
	p.before = reg.Snapshot()
	p.cpu = -cpuTime()
	return p
}

func (p *phase) finish() {
	p.cpu += cpuTime()
	p.after = p.reg.Snapshot()
	runtime.ReadMemStats(&p.memAfter)
}

func (p *phase) counter(name string) float64 {
	return float64(p.after.Counter(name) - p.before.Counter(name))
}

func (p *phase) gauge(name string) float64 { return float64(p.after.Gauge(name)) }

func (p *phase) histCount(name string) float64 {
	return float64(p.after.Histograms[name].Count - p.before.Histograms[name].Count)
}

func (p *phase) histSumMS(name string) float64 {
	return float64(p.after.Histograms[name].SumNS-p.before.Histograms[name].SumNS) / 1e6
}

// layerCounts sets every per-layer metric that comes from the registry
// or the runtime. commits and rows are the benchmark's own commits and
// the base rows they carried during the phase.
func layerCounts(r *report, p *phase, commits, rows int) {
	c := float64(commits)
	r.setLayer("storage.window_cache_hit_ratio", ratio(p.counter("storage.window_cache.hits"),
		p.counter("storage.window_cache.hits")+p.counter("storage.window_cache.misses")))
	allCommits := p.counter("storage.commits")
	r.setLayer("wal.append_us_per_commit", ratio(p.histSumMS("wal.append_ns")*1e3, allCommits))
	r.setLayer("wal.bytes_per_row", ratio(p.counter("wal.bytes"), p.counter("storage.commit_rows")))
	r.setLayer("wal.fsyncs", p.histCount("wal.fsync_ns"))
	r.setLayer("wal.checkpoint_ms_total", p.histSumMS("wal.checkpoint_ns"))
	r.setLayer("push.refreshes_per_commit", ratio(p.counter("push.refreshes"), c))
	r.setLayer("push.coalesced_frac", ratio(p.counter("push.coalesced"), p.counter("push.routed")))
	r.setLayer("push.overflows", p.counter("push.overflows"))
	refreshes := p.counter("cq.refreshes")
	r.setLayer("cq.refresh_ms_per_op", ratio(p.histSumMS("cq.refresh_ns"), p.histCount("cq.refresh_ns")))
	r.setLayer("cq.useful_refresh_frac", ratio(p.counter("cq.notifications"), refreshes))
	r.setLayer("cq.template.steps_per_commit", ratio(p.counter("cq.template.steps"), c))
	r.setLayer("cq.template.cand_per_match", ratio(p.counter("cq.template.dispatch_candidates"),
		p.counter("cq.template.dispatch_matches")))
	r.setLayer("cq.materialize.rows_per_commit", ratio(p.counter("cq.materialize.rows"), c))
	steps := p.counter("dra.differential_path")
	// dra.reevaluate_ns is the engine's clock around every DRA step, on
	// each strategy and on the columnar and row paths alike.
	r.setLayer("dra.step_ms_per_op", ratio(p.histSumMS("dra.reevaluate_ns"), p.histCount("dra.reevaluate_ns")))
	r.setLayer("dra.pre_tuples_per_delta_row", ratio(p.counter("dra.pre_tuples_scanned"), p.counter("dra.delta_rows_consumed")))
	r.setLayer("dra.terms_per_step", ratio(p.counter("dra.terms_evaluated"), steps))
	r.setLayer("dra.index_cache_hit_ratio", ratio(p.counter("dra.index_cache.hits"),
		p.counter("dra.index_cache.hits")+p.counter("dra.index_cache.misses")))
	r.setLayer("dra.strategy.truth_table", p.gauge("dra.strategy.truth_table"))
	r.setLayer("dra.strategy.incremental", p.gauge("dra.strategy.incremental"))
	r.setLayer("dra.strategy.propagate", p.gauge("dra.strategy.propagate"))
	r.setLayer("dra.strategy.repicks", p.counter("dra.strategy.repicks"))
	// A fallback is a columnar attempt that re-ran on the row path;
	// dra.vector_steps counts only the attempts that succeeded.
	r.setLayer("dra.vector_fallback_frac", ratio(p.counter("dra.vector_fallbacks"),
		p.counter("dra.vector_fallbacks")+p.counter("dra.vector_steps")))
	r.setLayer("dra.skipped_frac", ratio(p.counter("dra.skipped"), p.counter("dra.skipped")+steps))
	r.setLayer("go.allocs_per_row", ratio(float64(p.memAfter.Mallocs-p.memBefore.Mallocs), float64(rows)))
	r.setLayer("go.gc_cycles", float64(p.memAfter.NumGC-p.memBefore.NumGC))
	r.setLayer("go.gc_pause_ms_total", float64(p.memAfter.PauseTotalNs-p.memBefore.PauseTotalNs)/1e6)
}

// phaseStats is what every workload's timed phase measures.
type phaseStats struct {
	p *phase
	// ops counts the commits made; rows the base rows they carried.
	ops, rows         int
	notify, commitLat latencies
	// errs counts failed commits, uncovered the commits no
	// notification covered, pending the push backlog after FlushPush.
	errs, uncovered, pending int
	checks, mismatches       int
	firstErr                 error
	// Sampled after commits in traced phases only.
	deltaMax int
	queueMax int64
	// cpuExcluded is CPU time the benchmark spent on oracle checks
	// inside the phase.
	cpuExcluded time.Duration
	// windows are the closed slices of the phase (see tick); cur is the
	// open one, which began at process CPU time winCPU with winExcl of
	// cpuExcluded already spent.
	windows         []window
	winLen          time.Duration
	cur             window
	winCPU, winExcl time.Duration
}

// windowsPerPhase is how many slices a timed phase is cut into. Rates
// and median latencies are reported as the median over the slices, so
// a burst of host noise or a run of GC cycles moves one slice and not
// the figure.
const windowsPerPhase = 10

// window is one slice of a timed phase: the base rows committed in it,
// the loop's wall time outside oracle checks, and the process CPU time
// outside oracle checks.
type window struct {
	rows      int
	busy, cpu time.Duration
}

// begin starts a timed phase of the given length.
func (s *phaseStats) begin(reg *obs.Registry, seconds float64) {
	s.p = beginPhase(reg)
	s.winLen = time.Duration(seconds * float64(time.Second) / windowsPerPhase)
	s.winCPU = cpuTime()
}

// tick records one loop iteration that committed rows and took busy
// wall time, closing the current slice once it holds winLen of busy
// time. Oracle checks must come after the tick of their iteration.
func (s *phaseStats) tick(rows int, busy time.Duration) {
	s.cur.rows += rows
	s.cur.busy += busy
	if s.cur.busy < s.winLen {
		return
	}
	now := cpuTime()
	s.cur.cpu = now - s.winCPU - (s.cpuExcluded - s.winExcl)
	s.windows = append(s.windows, s.cur)
	s.cur = window{}
	s.winCPU, s.winExcl = now, s.cpuExcluded
}

// perWindow returns the median of f over the closed slices; a phase too
// short to close one is taken whole. A trailing partial slice is left
// out.
func (s *phaseStats) perWindow(f func(w window) float64) float64 {
	ws := s.windows
	if len(ws) == 0 {
		ws = []window{{rows: s.rows, busy: s.cur.busy, cpu: s.p.cpu - s.cpuExcluded}}
	}
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// latencies are the samples of one timing, each tagged with the slice
// of the phase it was taken in.
type latencies struct {
	ds     []time.Duration
	slices []int
}

// add records a sample taken in the given slice.
func (l *latencies) add(d time.Duration, slice int) {
	l.ds = append(l.ds, d)
	l.slices = append(l.slices, slice)
}

// slice is the index of the phase's open slice.
func (s *phaseStats) slice() int { return len(s.windows) }

// p50 returns the median over the closed slices of each slice's median
// of l; samples of the trailing partial slice are left out. A phase too
// short to close one slice is taken whole.
func (s *phaseStats) p50(l *latencies) time.Duration {
	if len(s.windows) == 0 {
		return quantile(l.ds, 0.5)
	}
	per := make([][]time.Duration, len(s.windows))
	for i, d := range l.ds {
		if k := l.slices[i]; k < len(per) {
			per[k] = append(per[k], d)
		}
	}
	xs := make([]float64, 0, len(per))
	for _, ds := range per {
		if len(ds) > 0 {
			xs = append(xs, float64(quantile(ds, 0.5)))
		}
	}
	return time.Duration(median(xs))
}

// rowsPerSec is the median over slices of committed rows per second of
// busy time.
func (s *phaseStats) rowsPerSec() float64 {
	return s.perWindow(func(w window) float64 { return ratio(float64(w.rows), w.busy.Seconds()) })
}

// check runs one oracle pass and records its outcome.
func (s *phaseStats) check(checked, mismatches int, first error) {
	s.checks += checked
	s.mismatches += mismatches
	if s.firstErr == nil {
		s.firstErr = first
	}
}

// count folds a phase's operations and failures into r. Engine-side
// failures are refresh errors, push overflows and dropped
// notifications.
func (r *report) count(s *phaseStats) {
	engine := int(s.p.counter("cq.refresh.errors") + s.p.counter("push.overflows") + s.p.counter("cq.notifications.dropped"))
	r.attempted += s.ops + s.errs
	r.failed += s.errs + s.uncovered + engine
	if s.pending != 0 {
		r.failed++
		r.note("push backlog after FlushPush: %d pending", s.pending)
	}
	if s.uncovered > 0 || engine > 0 {
		r.note("commits without a covering notification %d, engine failures %d", s.uncovered, engine)
	}
	r.oracle(s.checks, s.mismatches, s.firstErr)
}

// endToEndTimings sets the latency and CPU metrics of an untraced
// phase. cpu_us_per_row is the whole process's CPU time (engine,
// generator and Go runtime, oracle checks excluded) per committed row,
// as a median over the phase's slices: unlike wall-clock latency it
// does not grow when the host lends the CPU to someone else.
func (r *report) endToEndTimings(a *phaseStats) {
	r.setTimings("notify", a, &a.notify, "ms")
	r.setTimings("commit", a, &a.commitLat, "us")
	r.set("cpu_us_per_row", a.perWindow(func(w window) float64 {
		return ratio(float64(w.cpu)/1e3, float64(w.rows))
	}), "us", a.rows)
}

// tracedLayers sets the per-layer metrics every workload derives alike
// from its untraced phase a and traced phase b.
func tracedLayers(r *report, a, b *phaseStats, regTimes []time.Duration, prepMS float64) {
	layerCounts(r, b.p, b.ops, b.rows)
	r.setLayer("storage.commit_us_p50", float64(b.p50(&b.commitLat))/1e3)
	r.setLayer("storage.delta_rows_retained_max", float64(b.deltaMax))
	r.setLayer("push.queue_depth_max", float64(b.queueMax))
	r.setLayer("cq.register_ms_p50", float64(quantile(regTimes, 0.5))/1e6)
	r.setLayer("dra.prepare_ms_total", prepMS)
	r.setLayer("trace.overhead_notify_p50_ms", float64(b.p50(&b.notify)-a.p50(&a.notify))/1e6)
	r.setLayer("trace.overhead_commit_p50_us", float64(b.p50(&b.commitLat)-a.p50(&a.commitLat))/1e3)
}

// prepareMS is the registry's total Prepare time, read after set-up.
func prepareMS(reg *obs.Registry) float64 {
	return float64(reg.Snapshot().Histograms["dra.prepare_ns"].SumNS) / 1e6
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
