package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// alerts-push: many tenants watching price thresholds on four quote
// tables, fed by an open-loop generator at a fixed commit rate. Nearly
// all work sits in the commit hook, push routing and coalescing, the
// shared template step and its parameter dispatch, the columnar
// selection kernels and delivery. It bypasses joins, the WAL, poll
// rounds and materialization.

type alertsSize struct {
	tables, rowsPerTable, cqs, rowsPerCommit int
	// rate is commits per second. On a 2-core host one engine worker
	// also keeps a flat backlog at 100/s, but there queueing amplified
	// host noise: runs where CPU time per row rose 14% saw notify_p50
	// rise up to 47%. 50/s halves the worker's load, so the latency
	// follows the engine more than the host.
	rate float64
	// checkEvery pauses the generator every that many commits to check
	// a sample of queries against re-evaluation.
	checkEvery, checkSample int
}

var (
	alertsFull = alertsSize{tables: 4, rowsPerTable: 2500, cqs: 2000, rowsPerCommit: 4, rate: 50, checkEvery: 250, checkSample: 40}
	alertsTiny = alertsSize{tables: 2, rowsPerTable: 200, cqs: 40, rowsPerCommit: 4, rate: 100, checkEvery: 20, checkSample: 8}
)

// arrival is one delivered notification: the execution it carried and
// when its callback ran.
type arrival struct {
	ts      vclock.Timestamp
	at      time.Time
	witness bool
}

// alertCommit is one generated commit of the open loop.
type alertCommit struct {
	table int
	ts    vclock.Timestamp
	due   time.Time
	span  int
	// slice is the slice of the timed phase the commit was made in.
	slice int
}

type alertsWorld struct {
	sz       alertsSize
	store    *storage.Store
	mgr      *cq.Manager
	reg      *obs.Registry
	g        *gen
	names    []string
	queries  map[string]string
	witness  []string
	regTimes []time.Duration

	tr atomic.Pointer[tracer]
	// mu[t] guards notes[t], every notification of a query on table t.
	mu      []sync.Mutex
	notes   [][]arrival
	cancels []func()
}

func quotesSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "vol", Type: relation.TInt},
	)
}

func alertsSettings(sz alertsSize) engineSettings {
	// PushQueue at or above the query count makes overflow impossible;
	// one worker plus the generator fill two cores.
	return engineSettings{parallelism: 1, push: true, pushQueue: sz.cqs + 64, shareTemplates: true}
}

func newAlertsWorld(sz alertsSize, seed int64, tr *tracer) (*alertsWorld, error) {
	w := &alertsWorld{sz: sz, queries: map[string]string{}}
	w.tr.Store(tr)
	w.store, w.mgr, w.reg = memEngine(alertsSettings(sz))
	tables := make([]string, sz.tables)
	for t := range tables {
		tables[t] = fmt.Sprintf("quotes%d", t)
		if err := w.store.CreateTable(tables[t], quotesSchema()); err != nil {
			return nil, err
		}
	}
	w.g = newGen(seed, tables...)
	w.mu = make([]sync.Mutex, sz.tables)
	w.notes = make([][]arrival, sz.tables)
	for t := range tables {
		err := w.g.seedRows(w.store, t, sz.rowsPerTable, func(i int) []relation.Value {
			return []relation.Value{
				relation.Str(fmt.Sprintf("Q%d-%05d", t, i)),
				relation.Float(w.g.rng.Float64() * 200),
				relation.Int(int64(w.g.rng.Intn(10000))),
			}
		})
		if err != nil {
			return nil, err
		}
	}
	// Tenants are spread evenly over the tables and kinds, so every seed
	// puts the same work on every table; only the constants are drawn.
	// 88% share the one-threshold template, 10% a second two-predicate
	// template, and 2% have private plans (an OR, which the template
	// extractor does not share). Thresholds sit in the top quarter of the
	// price range, as alerts do.
	nTenants := sz.cqs - sz.tables
	for i := 0; i < nTenants; i++ {
		table := tables[i%sz.tables]
		x := 150 + float64(w.g.rng.Intn(5000))/100
		var q string
		switch k := (i / sz.tables) % 50; {
		case k == 0:
			q = fmt.Sprintf("SELECT sym, vol FROM %s WHERE price > %.2f OR vol > %d", table, x, 9000+w.g.rng.Intn(1000))
		case k <= 5:
			q = fmt.Sprintf("SELECT * FROM %s WHERE price > %.2f AND vol < %d", table, x, w.g.rng.Intn(10000))
		default:
			q = fmt.Sprintf("SELECT * FROM %s WHERE price > %.2f", table, x)
		}
		name := fmt.Sprintf("t%05d", i)
		if err := w.add(cq.Def{Name: name, Query: q}, tr); err != nil {
			return nil, err
		}
		if err := w.subscribe(name, i%sz.tables, false); err != nil {
			return nil, err
		}
	}
	// One NotifyEmpty witness per table: every refresh of it notifies,
	// so every commit is covered by at least one notification.
	for t := range tables {
		name := fmt.Sprintf("witness%d", t)
		q := fmt.Sprintf("SELECT * FROM %s WHERE price > -1", tables[t])
		if err := w.add(cq.Def{Name: name, Query: q, NotifyEmpty: true}, tr); err != nil {
			return nil, err
		}
		w.witness = append(w.witness, name)
		if err := w.subscribe(name, t, true); err != nil {
			return nil, err
		}
	}
	w.g.endSetup()
	return w, nil
}

// subscribe records every notification of a query on table t: its
// execution timestamp, arrival time and whether a witness sent it.
func (w *alertsWorld) subscribe(name string, t int, witness bool) error {
	cancel, err := w.mgr.SubscribeFunc(name, func(n cq.Notification, closed bool) {
		if closed {
			return
		}
		now := time.Now()
		w.mu[t].Lock()
		w.notes[t] = append(w.notes[t], arrival{ts: n.ExecTS, at: now, witness: witness})
		w.mu[t].Unlock()
		w.tr.Load().callback(now, n.ExecTS, -1)
	})
	if err != nil {
		return err
	}
	w.cancels = append(w.cancels, cancel)
	return nil
}

func (w *alertsWorld) add(def cq.Def, tr *tracer) error {
	w.g.query(def.Name, def.Query)
	w.names = append(w.names, def.Name)
	w.queries[def.Name] = def.Query
	return register(w.mgr, tr, def, &w.regTimes)
}

func (w *alertsWorld) close() {
	for _, c := range w.cancels {
		c()
	}
	_ = w.mgr.Close()
}

// alertsPhase is what one timed phase measured.
type alertsPhase struct {
	phaseStats
	commits []alertCommit
	late    latencies
	covered int
	elapsed time.Duration
}

// run drives the open loop for the given length. Commit i is due at
// start + i/rate; its notification latency is measured from that due
// time, so a stalled generator shows up as latency and as lateness.
func (w *alertsWorld) run(seconds float64, tr *tracer, orc *oracle) *alertsPhase {
	w.tr.Store(tr)
	for t := range w.notes {
		w.mu[t].Lock()
		w.notes[t] = nil
		w.mu[t].Unlock()
	}
	ph := &alertsPhase{}
	ph.begin(w.reg, seconds)
	interval := time.Duration(float64(time.Second) / w.sz.rate)
	start := time.Now()
	lastTick := start
	var paused time.Duration
	sample := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i)*interval + paused)
		if due.Sub(start)-paused >= time.Duration(seconds*float64(time.Second)) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.late.add(time.Since(due), ph.slice())
		t := w.g.rng.Intn(w.sz.tables)
		tx := w.store.Begin()
		var err error
		for _, slot := range w.g.distinctSlots(t, w.sz.rowsPerCommit) {
			vals := w.g.row(t, slot)
			vals[1] = relation.Float(w.g.rng.Float64() * 200)
			vals[2] = relation.Int(int64(w.g.rng.Intn(10000)))
			if err = w.g.update(tx, t, slot, vals); err != nil {
				break
			}
		}
		if err != nil {
			tx.Abort()
			ph.errs++
			continue
		}
		id := tr.begin(spanCommit, int64(i+1), -1)
		c0 := time.Now()
		ts, err := tx.Commit()
		c1 := time.Now()
		tr.end(id)
		if err != nil {
			ph.errs++
			continue
		}
		ph.commits = append(ph.commits, alertCommit{table: t, ts: ts, due: due, span: id, slice: ph.slice()})
		ph.commitLat.add(c1.Sub(c0), ph.slice())
		ph.ops++
		ph.rows += w.sz.rowsPerCommit
		ph.tick(w.sz.rowsPerCommit, c1.Sub(lastTick))
		lastTick = c1
		if tr != nil {
			ph.queueMax = max(ph.queueMax, w.reg.Gauge("push.queue_depth").Value())
			rows, _ := w.store.DeltaUsage()
			ph.deltaMax = max(ph.deltaMax, rows)
		}
		if orc != nil && w.sz.checkEvery > 0 && (i+1)%w.sz.checkEvery == 0 {
			// Pause the schedule: drain, check a rotating sample plus the
			// witnesses, then shift every later due time by the pause.
			p0, cpu0 := time.Now(), cpuTime()
			w.flush(tr)
			names := append([]string(nil), w.witness...)
			for k := 0; k < w.sz.checkSample; k++ {
				names = append(names, w.names[(sample+k)%len(w.names)])
			}
			sample += w.sz.checkSample
			ph.check(orc.pass(names, w.queries))
			paused += time.Since(p0)
			ph.cpuExcluded += cpuTime() - cpu0
			lastTick = time.Now()
		}
	}
	w.flush(tr)
	ph.pending = w.mgr.PushPending()
	ph.p.finish()

	// A commit's fan-out is delivered when the last notification it
	// caused arrives. The router dispatches a commit's queries in no
	// fixed order, so no single query marks the end; the latency is the
	// latest arrival among notifications of the commit's table executed
	// before the table's next commit. A commit whose refreshes were all
	// coalesced into the next one is covered by the first notification
	// at or after it. Every commit must also have a witness notification
	// at or after it; one without is counted as uncovered.
	var last time.Time
	byTable := make([][]alertCommit, w.sz.tables)
	for _, c := range ph.commits {
		byTable[c.table] = append(byTable[c.table], c)
	}
	for t, cs := range byTable {
		// Take the arrivals and drop the world's reference, so heap_mb
		// does not count the benchmark's own buffers.
		w.mu[t].Lock()
		notes := w.notes[t]
		w.notes[t] = nil
		w.mu[t].Unlock()
		sort.SliceStable(notes, func(i, j int) bool { return notes[i].ts < notes[j].ts })
		k, kw := 0, 0
		for i, c := range cs {
			for k < len(notes) && notes[k].ts < c.ts {
				k++
			}
			for kw < len(notes) && (notes[kw].ts < c.ts || !notes[kw].witness) {
				kw++
			}
			if kw == len(notes) {
				continue
			}
			end := notes[k].at
			for j := k; j < len(notes) && (i+1 == len(cs) || notes[j].ts < cs[i+1].ts); j++ {
				if notes[j].at.After(end) {
					end = notes[j].at
				}
			}
			ph.covered++
			ph.notify.add(end.Sub(c.due), c.slice)
			if end.After(last) {
				last = end
			}
		}
	}
	ph.elapsed = last.Sub(start) - paused
	ph.uncovered = len(ph.commits) - ph.covered
	return ph
}

func (w *alertsWorld) flush(tr *tracer) {
	id := tr.begin(spanFlush, 0, -1)
	w.mgr.FlushPush()
	tr.end(id)
}

func runAlerts(o runOpts, tiny bool) (*report, error) {
	sz := alertsFull
	if tiny {
		sz = alertsTiny
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport(o.workload)
	rep.env = baseEnv(o)
	rep.env.add("sizes", fmt.Sprintf("%d tables x %d rows, %d CQs (%d witnesses), %d rows/commit",
		sz.tables, sz.rowsPerTable, sz.cqs, sz.tables, sz.rowsPerCommit))
	rep.env.add("loop", fmt.Sprintf("open, %.0f commits/s, latency from due time", sz.rate))
	alertsSettings(sz).describe(&rep.env)
	rep.env.add("fsync", "none (in memory)")

	w, setups, err := setupRuns(o.setupReps, func() (*alertsWorld, error) {
		return newAlertsWorld(sz, o.seed, tr)
	}, (*alertsWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep.set("setup_s", median(durSeconds(setups)), "s", len(setups))
	prepMS := prepareMS(w.reg)
	rep.env.add("templates", fmt.Sprint(w.reg.Gauge("cq.templates").Value()))

	orc := newOracle(w.store, w.mgr)
	a := w.run(o.seconds, nil, orc)
	rep.set("heap_mb", liveHeapMB(), "MiB", 1)
	rep.endToEndTimings(&a.phaseStats)
	rep.set("rows_per_s", ratio(float64(a.covered*sz.rowsPerCommit), a.elapsed.Seconds()), "rows/s", a.covered)
	rep.setTimings("loadgen_late", &a.phaseStats, &a.late, "ms")
	rep.count(&a.phaseStats)
	if o.trace {
		b := w.run(o.seconds, tr, orc)
		rep.count(&b.phaseStats)
		tracedLayers(rep, &a.phaseStats, &b.phaseStats, w.regTimes, prepMS)
		rep.setLayer("loadgen.late_p99_ms", float64(quantile(b.late.ds, 0.99))/1e6)
		ts := make([]vclock.Timestamp, len(b.commits))
		ids := make([]int, len(b.commits))
		for i, c := range b.commits {
			ts[i], ids[i] = c.ts, c.span
		}
		tr.resolveCallbacks(ts, ids)
		if err := layerSelfTimes(rep, tr, o.tracePath()); err != nil {
			return nil, err
		}
	}

	// Final check: every query against re-evaluation.
	rep.oracle(orc.pass(w.names, w.queries))
	w.g.describe(&rep.env)
	return rep, nil
}
