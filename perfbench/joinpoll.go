package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// join-poll: a closed loop of one 64-row commit followed by one Poll
// round over join, DISTINCT and selection queries, in memory with push
// off. Nearly all work sits in the DRA join terms, strategy choice, the
// operand index cache, the window cache, the relevance pre-pass and the
// row-path fallback (about 1% of modified orders carry an untyped NULL
// price, which the columnar kernels cannot represent). It bypasses push,
// templates, the WAL and materialization.

type joinSize struct {
	orders, customers, items, rowsPerCommit int
	checkEvery                              int
}

var (
	joinFull = joinSize{orders: 50000, customers: 10000, items: 1000, rowsPerCommit: 64, checkEvery: 1500}
	joinTiny = joinSize{orders: 2000, customers: 400, items: 50, rowsPerCommit: 64, checkEvery: 10}
)

const (
	tOrders = iota
	tCustomers
	tItems
)

var joinQueries = []struct{ name, query string }{
	{"j3", "SELECT o.oid, c.region, i.cat, o.qty FROM orders o JOIN customers c ON o.cust = c.cid JOIN items i ON o.item = i.iid WHERE c.tier = 1"},
	{"j2c", "SELECT o.oid, o.price, c.region FROM orders o JOIN customers c ON o.cust = c.cid WHERE o.price > 150 AND c.tier < 2"},
	{"j2i", "SELECT o.oid, i.cat, o.qty FROM orders o JOIN items i ON o.item = i.iid WHERE i.weight > 5 AND o.qty < 10"},
	{"dist", "SELECT DISTINCT cust FROM orders WHERE qty > 45"},
	{"sel", "SELECT * FROM orders WHERE price > 190"},
}

type joinWorld struct {
	sz       joinSize
	store    *storage.Store
	mgr      *cq.Manager
	reg      *obs.Registry
	g        *gen
	names    []string
	queries  map[string]string
	regTimes []time.Duration
	nextOID  int64

	// Callbacks run on refresh workers during Poll; mu guards what they
	// record for the current round.
	mu      sync.Mutex
	cbTS    []vclock.Timestamp
	cbAt    []time.Time
	tr      *tracer
	pollID  int
	cancels []func()
}

// joinSettings uses one refresh worker: with two on a two-core host, a
// round's wall time depended on the host granting both cores at once,
// and varied between runs of equal CPU time per row.
func joinSettings() engineSettings {
	return engineSettings{parallelism: 1, push: false}
}

func newJoinWorld(sz joinSize, seed int64, tr *tracer) (*joinWorld, error) {
	w := &joinWorld{sz: sz, queries: map[string]string{}, pollID: -1}
	w.store, w.mgr, w.reg = memEngine(joinSettings())
	schemas := []relation.Schema{
		relation.MustSchema(
			relation.Column{Name: "oid", Type: relation.TInt},
			relation.Column{Name: "cust", Type: relation.TInt},
			relation.Column{Name: "item", Type: relation.TInt},
			relation.Column{Name: "qty", Type: relation.TInt},
			relation.Column{Name: "price", Type: relation.TFloat}),
		relation.MustSchema(
			relation.Column{Name: "cid", Type: relation.TInt},
			relation.Column{Name: "region", Type: relation.TString},
			relation.Column{Name: "tier", Type: relation.TInt}),
		relation.MustSchema(
			relation.Column{Name: "iid", Type: relation.TInt},
			relation.Column{Name: "cat", Type: relation.TString},
			relation.Column{Name: "weight", Type: relation.TFloat}),
	}
	names := []string{"orders", "customers", "items"}
	for i, n := range names {
		if err := w.store.CreateTable(n, schemas[i]); err != nil {
			return nil, err
		}
	}
	w.g = newGen(seed, names...)
	if err := w.g.seedRows(w.store, tCustomers, sz.customers, func(i int) []relation.Value {
		return []relation.Value{relation.Int(int64(i)), relation.Str(fmt.Sprintf("r%d", w.g.rng.Intn(20))), relation.Int(int64(w.g.rng.Intn(5)))}
	}); err != nil {
		return nil, err
	}
	if err := w.g.seedRows(w.store, tItems, sz.items, func(i int) []relation.Value {
		return []relation.Value{relation.Int(int64(i)), relation.Str(fmt.Sprintf("c%d", w.g.rng.Intn(30))), relation.Float(w.g.rng.Float64() * 10)}
	}); err != nil {
		return nil, err
	}
	if err := w.g.seedRows(w.store, tOrders, sz.orders, func(int) []relation.Value { return w.order() }); err != nil {
		return nil, err
	}
	for _, q := range joinQueries {
		w.g.query(q.name, q.query)
		w.names = append(w.names, q.name)
		w.queries[q.name] = q.query
		// NotifyEmpty: every round notifies every query, so each commit
		// is covered by one notification per query.
		if err := register(w.mgr, tr, cq.Def{Name: q.name, Query: q.query, NotifyEmpty: true}, &w.regTimes); err != nil {
			return nil, err
		}
		cancel, err := w.mgr.SubscribeFunc(q.name, w.onNotify)
		if err != nil {
			return nil, err
		}
		w.cancels = append(w.cancels, cancel)
	}
	w.g.endSetup()
	return w, nil
}

func (w *joinWorld) onNotify(n cq.Notification, closed bool) {
	if closed {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.cbTS = append(w.cbTS, n.ExecTS)
	w.cbAt = append(w.cbAt, now)
	tr, parent := w.tr, w.pollID
	w.mu.Unlock()
	tr.callback(now, n.ExecTS, parent)
}

// order draws a new order row.
func (w *joinWorld) order() []relation.Value {
	w.nextOID++
	return []relation.Value{
		relation.Int(w.nextOID),
		relation.Int(int64(w.g.rng.Intn(w.sz.customers))),
		relation.Int(int64(w.g.rng.Intn(w.sz.items))),
		relation.Int(int64(1 + w.g.rng.Intn(50))),
		relation.Float(w.g.rng.Float64() * 200),
	}
}

// batch fills tx with one commit's rows: 70% order modifications (1% of
// them to an untyped NULL price), 10% order inserts, 10% order deletes,
// 6% customer tier changes, 4% item weight changes. Inserts and deletes
// balance, so table sizes hold steady.
func (w *joinWorld) batch(tx *storage.Tx) error {
	var nMod, nIns, nDel, nCust, nItem int
	for i := 0; i < w.sz.rowsPerCommit; i++ {
		switch r := w.g.rng.Float64(); {
		case r < 0.70:
			nMod++
		case r < 0.80:
			nIns++
		case r < 0.90:
			nDel++
		case r < 0.96:
			nCust++
		default:
			nItem++
		}
	}
	slots := w.g.distinctSlots(tOrders, nMod+nDel)
	for _, s := range slots[:nMod] {
		vals := w.g.row(tOrders, s)
		vals[3] = relation.Int(int64(1 + w.g.rng.Intn(50)))
		if w.g.rng.Float64() < 0.01 {
			vals[4] = relation.NullValue()
		} else {
			vals[4] = relation.Float(w.g.rng.Float64() * 200)
		}
		if err := w.g.update(tx, tOrders, s, vals); err != nil {
			return err
		}
	}
	// Delete from the highest slot down: removal moves the last row into
	// the freed slot, which must not be one still to be deleted.
	dels := slots[nMod:]
	sort.Sort(sort.Reverse(sort.IntSlice(dels)))
	for _, s := range dels {
		if err := w.g.delete(tx, tOrders, s); err != nil {
			return err
		}
	}
	for i := 0; i < nIns; i++ {
		if err := w.g.insert(tx, tOrders, w.order()); err != nil {
			return err
		}
	}
	for _, s := range w.g.distinctSlots(tCustomers, nCust) {
		vals := w.g.row(tCustomers, s)
		vals[2] = relation.Int(int64(w.g.rng.Intn(5)))
		if err := w.g.update(tx, tCustomers, s, vals); err != nil {
			return err
		}
	}
	for _, s := range w.g.distinctSlots(tItems, nItem) {
		vals := w.g.row(tItems, s)
		vals[2] = relation.Float(w.g.rng.Float64() * 10)
		if err := w.g.update(tx, tItems, s, vals); err != nil {
			return err
		}
	}
	return nil
}

func (w *joinWorld) close() {
	for _, c := range w.cancels {
		c()
	}
	_ = w.mgr.Close()
}

type joinPhase struct {
	phaseStats
	round latencies
}

// run drives the closed loop: build a commit, commit it, Poll once, and
// require a notification from every query at or after the commit.
func (w *joinWorld) run(seconds float64, tr *tracer, orc *oracle) *joinPhase {
	ph := &joinPhase{}
	ph.begin(w.reg, seconds)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 1; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		tx := w.store.Begin()
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
		if tr != nil {
			// Sampled before the round: its GC frees what it consumed.
			rows, _ := w.store.DeltaUsage()
			ph.deltaMax = max(ph.deltaMax, rows)
		}
		w.mu.Lock()
		w.cbTS, w.cbAt = w.cbTS[:0], w.cbAt[:0]
		w.tr = tr
		w.pollID = tr.begin(spanPoll, int64(i), it)
		pollID := w.pollID
		w.mu.Unlock()
		p0 := time.Now()
		_, err = w.mgr.Poll()
		p1 := time.Now()
		tr.end(pollID)
		tr.end(it)
		if err != nil {
			ph.errs++
		}
		ph.ops++
		ph.rows += w.sz.rowsPerCommit
		ph.commitLat.add(c1.Sub(c0), ph.slice())
		ph.round.add(p1.Sub(p0), ph.slice())
		w.mu.Lock()
		var last time.Time
		covered := 0
		for k, ts2 := range w.cbTS {
			if ts2 >= ts {
				covered++
				if w.cbAt[k].After(last) {
					last = w.cbAt[k]
				}
			}
		}
		w.mu.Unlock()
		if covered < len(w.names) {
			ph.uncovered++
		} else {
			ph.notify.add(last.Sub(c0), ph.slice())
		}
		ph.tick(w.sz.rowsPerCommit, time.Since(t0))
		if orc != nil && i%w.sz.checkEvery == 0 {
			// The phase measures seconds of loop time, so the check's
			// pause moves the deadline.
			p0, cpu0 := time.Now(), cpuTime()
			ph.check(orc.pass(w.names, w.queries))
			ph.cpuExcluded += cpuTime() - cpu0
			deadline = deadline.Add(time.Since(p0))
		}
	}
	ph.p.finish()
	return ph
}

func runJoinPoll(o runOpts, tiny bool) (*report, error) {
	sz := joinFull
	if tiny {
		sz = joinTiny
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport(o.workload)
	rep.env = baseEnv(o)
	rep.env.add("sizes", fmt.Sprintf("orders %d, customers %d, items %d; %d rows/commit; %d CQs",
		sz.orders, sz.customers, sz.items, sz.rowsPerCommit, len(joinQueries)))
	rep.env.add("loop", "closed, 1 client: commit then Poll")
	joinSettings().describe(&rep.env)
	rep.env.add("fsync", "none (in memory)")

	w, setups, err := setupRuns(o.setupReps, func() (*joinWorld, error) {
		return newJoinWorld(sz, o.seed, tr)
	}, (*joinWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep.set("setup_s", median(durSeconds(setups)), "s", len(setups))
	prepMS := prepareMS(w.reg)

	orc := newOracle(w.store, w.mgr)
	a := w.run(o.seconds, nil, orc)
	rep.set("heap_mb", liveHeapMB(), "MiB", 1)
	rep.endToEndTimings(&a.phaseStats)
	rep.setTimings("round", &a.phaseStats, &a.round, "ms")
	rep.set("rows_per_s", a.rowsPerSec(), "rows/s", a.ops)
	rep.count(&a.phaseStats)
	if o.trace {
		b := w.run(o.seconds, tr, orc)
		rep.count(&b.phaseStats)
		tracedLayers(rep, &a.phaseStats, &b.phaseStats, w.regTimes, prepMS)
		if err := layerSelfTimes(rep, tr, o.tracePath()); err != nil {
			return nil, err
		}
	}
	rep.oracle(orc.pass(w.names, w.queries))
	w.g.describe(&rep.env)
	return rep, nil
}
