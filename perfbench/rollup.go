package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// rollup-durable: a durable engine (WAL, fsync=interval, automatic
// checkpoints, push on) maintaining a three-stage cascade: orders joined
// with customers INTO enriched, a GROUP BY over 10k customers INTO
// bycust, and a leaf selection. A closed loop commits 8 order rows and
// waits for the leaf notification that covers the commit. It is the
// write-heavy side: storage and WAL append, materialize commits, cascade
// staging, aggregate maintenance and, at the end, crash recovery, while
// the join and selection kernels do little.

type rollupSize struct {
	orders, customers, rowsPerCommit int
	checkpointEvery, checkEvery      int
	recoveryReps                     int
}

var (
	rollupFull = rollupSize{orders: 20000, customers: 10000, rowsPerCommit: 8, checkpointEvery: 2000, checkEvery: 250, recoveryReps: 3}
	rollupTiny = rollupSize{orders: 1000, customers: 200, rowsPerCommit: 8, checkpointEvery: 100, checkEvery: 20, recoveryReps: 2}
)

// fsyncPolicy is stated in every output. With fsync=always, commit→leaf
// latency on a shared disk swings with other tenants' I/O; interval
// keeps the WAL append on the commit path but moves the sync off it.
const fsyncPolicy = wal.FsyncInterval

// leafWait bounds how long the loop waits for a covering leaf
// notification before counting the commit as failed.
const leafWait = 10 * time.Second

// maxUncovered ends a phase after that many leaf waits timed out.
const maxUncovered = 3

var rollupQueries = []struct{ name, query string }{
	{"enrich", "SELECT o.oid, o.cust, o.amount, c.region INTO enriched FROM orders o JOIN customers c ON o.cust = c.cid"},
	{"rollup", "SELECT cust, SUM(amount) AS total, COUNT(*) AS n INTO bycust FROM enriched GROUP BY cust"},
	{"leaf", "SELECT cust, total FROM bycust WHERE total > 1500"},
}

// materialized pairs each INTO producer with its target table.
var materialized = [][2]string{{"enrich", "enriched"}, {"rollup", "bycust"}}

type rollupWorld struct {
	sz       rollupSize
	dir      string
	fs       *crashFS
	sys      *durable.System
	reg      *obs.Registry
	g        *gen
	names    []string
	queries  map[string]string
	regTimes []time.Duration
	nextOID  int64

	tr      atomic.Pointer[tracer]
	mu      sync.Mutex
	leaf    []arrival
	signal  chan struct{} // capacity 1: a wake-up, not a queue
	cancels []func()
}

func rollupSettings() engineSettings {
	return engineSettings{parallelism: 1, push: true}
}

// rollupOptions mirrors continual.OpenDurable's durable.Options.
func rollupOptions(dir string, fs wal.FS, reg *obs.Registry, sz rollupSize) durable.Options {
	return durable.Options{
		Dir:             dir,
		FS:              fs,
		Fsync:           fsyncPolicy,
		CheckpointEvery: sz.checkpointEvery,
		Metrics:         reg,
		Watermarks:      storage.Watermarks{},
		CQ:              cqConfig(reg, rollupSettings()),
	}
}

func newRollupWorld(sz rollupSize, seed int64, dir string, tr *tracer) (*rollupWorld, error) {
	w := &rollupWorld{sz: sz, dir: dir, fs: &crashFS{}, queries: map[string]string{}, signal: make(chan struct{}, 1)}
	w.tr.Store(tr)
	w.reg = obs.NewRegistry()
	id := tr.begin(spanOpen, 0, -1)
	sys, err := durable.Open(rollupOptions(dir, w.fs, w.reg, sz))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.sys = sys
	store := sys.Store
	if err := store.CreateTable("orders", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.TInt},
		relation.Column{Name: "cust", Type: relation.TInt},
		relation.Column{Name: "amount", Type: relation.TFloat})); err != nil {
		return nil, err
	}
	if err := store.CreateTable("customers", relation.MustSchema(
		relation.Column{Name: "cid", Type: relation.TInt},
		relation.Column{Name: "region", Type: relation.TString})); err != nil {
		return nil, err
	}
	w.g = newGen(seed, "orders", "customers")
	if err := w.g.seedRows(store, 1, sz.customers, func(i int) []relation.Value {
		return []relation.Value{relation.Int(int64(i)), relation.Str(fmt.Sprintf("r%d", w.g.rng.Intn(20)))}
	}); err != nil {
		return nil, err
	}
	if err := w.g.seedRows(store, 0, sz.orders, func(int) []relation.Value { return w.order() }); err != nil {
		return nil, err
	}
	for _, q := range rollupQueries {
		w.g.query(q.name, q.query)
		w.names = append(w.names, q.name)
		w.queries[q.name] = q.query
		def := cq.Def{Name: q.name, Query: q.query, NotifyEmpty: q.name == "leaf"}
		if err := register(sys.Manager, tr, def, &w.regTimes); err != nil {
			return nil, err
		}
		f := w.onNotify
		if q.name == "leaf" {
			f = w.onLeaf
		}
		cancel, err := sys.Manager.SubscribeFunc(q.name, f)
		if err != nil {
			return nil, err
		}
		w.cancels = append(w.cancels, cancel)
	}
	w.g.endSetup()
	return w, nil
}

func (w *rollupWorld) onNotify(n cq.Notification, closed bool) {
	if !closed {
		w.tr.Load().callback(time.Now(), n.ExecTS, -1)
	}
}

func (w *rollupWorld) onLeaf(n cq.Notification, closed bool) {
	if closed {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.leaf = append(w.leaf, arrival{ts: n.ExecTS, at: now})
	w.mu.Unlock()
	select {
	case w.signal <- struct{}{}:
	default:
	}
	w.tr.Load().callback(now, n.ExecTS, -1)
}

func (w *rollupWorld) order() []relation.Value {
	w.nextOID++
	return []relation.Value{
		relation.Int(w.nextOID),
		relation.Int(int64(w.g.rng.Intn(w.sz.customers))),
		relation.Float(float64(w.g.rng.Intn(100000)) / 100),
	}
}

// batch fills tx with one commit: one insert, one delete and the rest
// amount changes, all on orders, so every commit moves some group's
// total and the leaf always refreshes.
func (w *rollupWorld) batch(tx *storage.Tx) error {
	slots := w.g.distinctSlots(0, w.sz.rowsPerCommit-1)
	mods, del := slots[:len(slots)-1], slots[len(slots)-1]
	for _, s := range mods {
		vals := w.g.row(0, s)
		vals[2] = relation.Float(float64(w.g.rng.Intn(100000)) / 100)
		if err := w.g.update(tx, 0, s, vals); err != nil {
			return err
		}
	}
	if err := w.g.delete(tx, 0, del); err != nil {
		return err
	}
	return w.g.insert(tx, 0, w.order())
}

// waitLeaf blocks until a leaf notification executed at or after ts
// arrives, starting the scan at index from, and returns its arrival
// time and the next scan index.
func (w *rollupWorld) waitLeaf(ts vclock.Timestamp, from int) (time.Time, int, bool) {
	timeout := time.NewTimer(leafWait)
	defer timeout.Stop()
	for {
		w.mu.Lock()
		for from < len(w.leaf) && w.leaf[from].ts < ts {
			from++
		}
		if from < len(w.leaf) {
			at := w.leaf[from].at
			w.mu.Unlock()
			return at, from, true
		}
		w.mu.Unlock()
		select {
		case <-w.signal:
		case <-timeout.C:
			return time.Time{}, from, false
		}
	}
}

func (w *rollupWorld) flush(tr *tracer) {
	id := tr.begin(spanFlush, 0, -1)
	w.sys.Manager.FlushPush()
	tr.end(id)
}

func (w *rollupWorld) close() {
	for _, c := range w.cancels {
		c()
	}
	_ = w.sys.Close()
}

// check runs the oracle over every query and compares each
// materialized table with its producer's result.
func (w *rollupWorld) check(orc *oracle) (checked, mismatches int, first error) {
	checked, mismatches, first = orc.pass(w.names, w.queries)
	for _, m := range materialized {
		checked++
		if err := compareTables(w.sys.Store, w.sys.Manager, m[0], m[1]); err != nil {
			mismatches++
			if first == nil {
				first = err
			}
		}
	}
	return checked, mismatches, first
}

type rollupPhase struct {
	phaseStats
	commits []rollupCommit
}

type rollupCommit struct {
	ts   vclock.Timestamp
	span int
}

// run drives the closed loop: commit, then wait for the covering leaf
// notification.
func (w *rollupWorld) run(seconds float64, tr *tracer, orc *oracle) *rollupPhase {
	w.tr.Store(tr)
	w.mu.Lock()
	w.leaf = w.leaf[:0]
	w.mu.Unlock()
	ph := &rollupPhase{}
	ph.begin(w.reg, seconds)
	next := 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 1; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		tx := w.sys.Store.Begin()
		if err := w.batch(tx); err != nil {
			tx.Abort()
			ph.errs++
			continue
		}
		it := tr.begin(spanIter, int64(i), -1)
		cs := tr.begin(spanCommit, int64(i), it)
		c0 := time.Now()
		ts, err := tx.Commit()
		c1 := time.Now()
		tr.end(cs)
		if err != nil {
			tr.end(it)
			ph.errs++
			continue
		}
		ph.commits = append(ph.commits, rollupCommit{ts: ts, span: cs})
		ph.commitLat.add(c1.Sub(c0), ph.slice())
		ph.ops++
		ph.rows += w.sz.rowsPerCommit
		at, k, ok := w.waitLeaf(ts, next)
		tr.end(it)
		next = k
		if ok {
			ph.notify.add(at.Sub(c0), ph.slice())
		} else if ph.uncovered++; ph.uncovered >= maxUncovered {
			break // the run has failed; stop within the time limit
		}
		if tr != nil {
			rows, _ := w.sys.Store.DeltaUsage()
			ph.deltaMax = max(ph.deltaMax, rows)
		}
		ph.tick(w.sz.rowsPerCommit, time.Since(t0))
		if orc != nil && i%w.sz.checkEvery == 0 {
			// The phase measures seconds of loop time, so the check's
			// pause moves the deadline.
			p0, cpu0 := time.Now(), cpuTime()
			w.flush(tr)
			ph.check(w.check(orc))
			ph.cpuExcluded += cpuTime() - cpu0
			deadline = deadline.Add(time.Since(p0))
		}
	}
	w.flush(tr)
	ph.pending = w.sys.Manager.PushPending()
	ph.p.finish()
	return ph
}

func runRollup(o runOpts, tiny bool) (*report, error) {
	sz := rollupFull
	if tiny {
		sz = rollupTiny
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport(o.workload)
	rep.env = baseEnv(o)
	rep.env.add("sizes", fmt.Sprintf("orders %d, customers %d (groups); %d rows/commit; cascade enrich -> rollup -> leaf",
		sz.orders, sz.customers, sz.rowsPerCommit))
	rep.env.add("loop", "closed, 1 client: commit then wait for the covering leaf notification")
	rollupSettings().describe(&rep.env)
	rep.env.add("fsync", fmt.Sprintf("interval (default 50ms sync period), checkpoint every %d commits", sz.checkpointEvery))

	built := 0
	w, setups, err := setupRuns(o.setupReps, func() (*rollupWorld, error) {
		built++
		return newRollupWorld(sz, o.seed, filepath.Join(o.dataDir, fmt.Sprintf("live%d", built)), tr)
	}, func(w *rollupWorld) {
		w.close()
		os.RemoveAll(w.dir)
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()
	rep.set("setup_s", median(durSeconds(setups)), "s", len(setups))
	prepMS := prepareMS(w.reg)

	orc := newOracle(w.sys.Store, w.sys.Manager)
	a := w.run(o.seconds, nil, orc)
	rep.set("heap_mb", liveHeapMB(), "MiB", 1)
	rep.endToEndTimings(&a.phaseStats)
	rep.set("rows_per_s", a.rowsPerSec(), "rows/s", a.ops)
	rep.count(&a.phaseStats)
	var b *rollupPhase
	if o.trace {
		b = w.run(o.seconds, tr, orc)
		rep.count(&b.phaseStats)
		tracedLayers(rep, &a.phaseStats, &b.phaseStats, w.regTimes, prepMS)
	}
	rep.oracle(w.check(orc))

	// Crash: copy the data directory as it stands after the last
	// acknowledged commit, without Close, then recover from the copy.
	pre, err := captureState(w.sys, w.names)
	if err != nil {
		return nil, err
	}
	images := make([]string, sz.recoveryReps)
	for k := range images {
		images[k] = filepath.Join(o.dataDir, fmt.Sprintf("crash%d", k))
	}
	files, bytes, err := w.fs.image(w.dir, images...)
	if err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	rep.env.add("crash_image", fmt.Sprintf("%d files, %d bytes", files, bytes))
	w.close()
	closed = true
	var recov []time.Duration
	records := 0
	for k, img := range images {
		runtime.GC()
		reg := obs.NewRegistry()
		id := tr.begin(spanOpen, 0, -1)
		t0 := time.Now()
		sys, err := durable.Open(rollupOptions(img, nil, reg, sz))
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		recov = append(recov, d)
		records = sys.Recovery.Records
		if k == 0 {
			rep.oracle(verifyRecovered(sys, pre, w.names, w.queries))
		}
		if err := sys.Close(); err != nil {
			return nil, fmt.Errorf("close recovered: %w", err)
		}
		os.RemoveAll(img)
	}
	rep.set("recovery_s", median(durSeconds(recov)), "s", len(recov))
	rep.env.add("records_replayed", fmt.Sprint(records))
	if o.trace {
		rep.setLayer("durable.records_replayed", float64(records))
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
	w.g.describe(&rep.env)
	return rep, nil
}

// crashState is what the engine held at the crash instant.
type crashState struct {
	tables  map[string]*relation.Relation
	results map[string]*relation.Relation
	seqs    map[string]int
}

func captureState(sys *durable.System, names []string) (*crashState, error) {
	st := &crashState{tables: map[string]*relation.Relation{}, results: map[string]*relation.Relation{}, seqs: map[string]int{}}
	for _, t := range sys.Store.TableNames() {
		r, err := sys.Store.Snapshot(t)
		if err != nil {
			return nil, err
		}
		st.tables[t] = r
	}
	for _, n := range names {
		r, err := sys.Manager.Result(n)
		if err != nil {
			return nil, err
		}
		s, err := sys.Manager.State(n)
		if err != nil {
			return nil, err
		}
		st.results[n], st.seqs[n] = r, s.Seq
	}
	return st, nil
}

// verifyRecovered checks that recovery rebuilt every table and every
// query result exactly as they stood at the crash, and that the
// recovered results still equal re-evaluation.
func verifyRecovered(sys *durable.System, pre *crashState, names []string, queries map[string]string) (checked, mismatches int, first error) {
	fail := func(err error) {
		mismatches++
		if first == nil {
			first = err
		}
	}
	tables := make([]string, 0, len(pre.tables))
	for t := range pre.tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		checked++
		got, err := sys.Store.Snapshot(t)
		if err != nil {
			fail(err)
			continue
		}
		if !got.EqualContents(pre.tables[t]) {
			fail(fmt.Errorf("%w: recovered table %s has %d rows, %d before the crash", errOracle, t, got.Len(), pre.tables[t].Len()))
		}
	}
	for _, n := range names {
		checked++
		got, err := sys.Manager.Result(n)
		if err != nil {
			fail(err)
			continue
		}
		if err := compareResults(n, got, pre.results[n]); err != nil {
			fail(fmt.Errorf("recovered result: %w", err))
		}
		if s, err := sys.Manager.State(n); err != nil || s.Seq != pre.seqs[n] {
			fail(errors.Join(err, fmt.Errorf("%w: %s resumed at seq %d, crashed at %d", errOracle, n, s.Seq, pre.seqs[n])))
		}
	}
	c, m, err := newOracle(sys.Store, sys.Manager).pass(names, queries)
	checked += c
	mismatches += m
	if first == nil {
		first = err
	}
	return checked, mismatches, first
}
