// Package continual is an embedded continual-query engine: standing
// queries over relational tables and wrapped external sources that are
// re-evaluated differentially as the data changes, notifying subscribers
// of exactly what changed.
//
// It is a from-scratch reproduction of "Differential Evaluation of
// Continual Queries" (Liu, Pu, Barga, Zhou; ICDCS 1996). A continual
// query is a triple (Q, Tcq, Stop): a SELECT query, a triggering
// condition (a period, an update count, or an epsilon specification
// bounding the magnitude of unseen changes), and a termination
// condition. After a query's initial execution, refreshes are computed
// by the Differential Re-evaluation Algorithm (DRA) over the update
// stream — not by rescanning base data.
//
// # Quick start
//
//	db := continual.Open()
//	defer db.Close()
//	_ = db.Exec(`CREATE TABLE stocks (name STRING, price FLOAT)`)
//	_ = db.Exec(`INSERT INTO stocks VALUES ('DEC', 150), ('IBM', 75)`)
//
//	sub, _ := db.Register("expensive", `SELECT * FROM stocks WHERE price > 120`)
//	_ = db.Exec(`INSERT INTO stocks VALUES ('MAC', 130)`)
//	db.Poll()
//	change := <-sub.Updates() // change.Inserted == [["MAC", 130]]
package continual

import (
	"errors"
	"fmt"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/diom"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

// Mode selects what each refresh of a continual query delivers.
type Mode int

// Result modes (Section 4.3 of the paper, step 4).
const (
	// Differential delivers only the changes since the previous result.
	Differential Mode = iota + 1
	// Complete delivers the full current result (maintained
	// incrementally, not recomputed).
	Complete
	// Deletions delivers only tuples that left the result.
	Deletions
)

// DB is an embedded continual query engine instance.
type DB struct {
	store    *storage.Store
	manager  *cq.Manager
	mediator *diom.Mediator
	metrics  *obs.Registry
	durable  *durable.System // nil for in-memory engines
}

// Options tune engine construction for OpenWith.
type Options struct {
	// Parallelism is the refresh worker-pool size used when a poll
	// round fires several queries: 0 means GOMAXPROCS, 1 refreshes
	// serially. Each query's update sequence stays monotonic at any
	// setting; only the relative order of different queries'
	// notifications is unspecified when Parallelism > 1.
	Parallelism int
	// Strategy forces the refresh pipeline for SPJ queries: "auto" (or
	// empty, the default) picks by cost model per query between the
	// paper's truth table and complete re-evaluation, and adapts as the
	// workload drifts; "truth-table" and "propagate" force one
	// pipeline. A forced strategy a query cannot run falls back to auto
	// for that query, logged and counted in cq.maintainer.fallbacks.
	Strategy string
	// Push enables commit-driven reactive refresh: every committed
	// transaction is routed immediately to the continual queries whose
	// operand tables it touched, their triggers evaluated and — when
	// fired — their refreshes dispatched on a worker pool, without
	// waiting for the next Poll tick. Bursts coalesce (one refresh
	// covers many commits) and notification latency drops from the
	// poll interval to the refresh cost itself. Poll/Start remain
	// available and are still needed for time-based (TriggerEvery)
	// queries and as the overflow fallback; running both is safe —
	// each query's update sequence stays gap-free and monotonic.
	Push bool
	// PushQueue bounds the push dispatch queue (default 1024). A queued
	// query coalesces further commits instead of re-queueing, so any
	// capacity at or above the number of registered queries makes
	// overflow — and therefore poll fallback — impossible.
	PushQueue int

	// DataDir makes the engine durable (OpenDurable only): committed
	// transactions and CQ executions append their deltas to a
	// write-ahead log in this directory before applying, and restarts
	// recover by loading the newest checkpoint and replaying the tail.
	// OpenWith ignores it — the in-memory constructors stay in-memory.
	DataDir string
	// Fsync is the WAL durability policy: "always" (default — every
	// acknowledged commit survives a crash), "interval" (background
	// sync; a crash may lose the last interval), or "never" (OS
	// decides; for benchmarks).
	Fsync string
	// CheckpointEvery takes an automatic background checkpoint after
	// that many committed transactions; 0 checkpoints only on Close and
	// explicit Checkpoint calls.
	CheckpointEvery int

	// RefreshBudget bounds each query refresh's wall time. A refresh
	// that exceeds the budget is abandoned (it finishes in the
	// background and is counted in cq.refresh.timeouts), recorded as a
	// failure on the query, and retried differentially by a later
	// trigger. 0 disables deadlines; panic isolation is always on
	// regardless.
	RefreshBudget time.Duration
	// QuarantineAfter is the consecutive-failure count after which a
	// query is quarantined: skipped by poll and push under a capped
	// exponential backoff, then probed; a successful probe catches up
	// differentially and fully heals it. 0 means the default (3);
	// negative disables quarantine.
	QuarantineAfter int
	// SoftDeltaRows / HardDeltaRows are degraded-mode watermarks on the
	// retained differential rows across all tables (0 disables). At the
	// soft watermark the engine sheds load: emergency GC runs and
	// push-based refresh coalesces back to polling. At the hard
	// watermark writes are rejected with ErrOverloaded until usage
	// recovers below the soft level.
	SoftDeltaRows, HardDeltaRows int
	// SoftDeltaBytes / HardDeltaBytes are the same watermarks in
	// approximate retained bytes (0 disables).
	SoftDeltaBytes, HardDeltaBytes int64

	// ShareTemplates lets queries that differ only in comparison
	// constants (SELECT * FROM quotes WHERE price > X for varying X)
	// share one differential plan: the engine evaluates the
	// constant-stripped template once per refresh round and routes each
	// template delta row to the matching subscribers through a
	// parameter index, so a round's cost scales with the number of
	// distinct templates, not the number of registered queries. Every
	// query keeps its own update sequence, trigger, journal entries and
	// health state.
	ShareTemplates bool
}

// guardPolicy translates the public overload-protection options.
func (o Options) guardPolicy() guard.Policy {
	return guard.Policy{Budget: o.RefreshBudget, FailureThreshold: o.QuarantineAfter}
}

// watermarks translates the public degraded-mode options.
func (o Options) watermarks() storage.Watermarks {
	return storage.Watermarks{
		SoftRows:  o.SoftDeltaRows,
		HardRows:  o.HardDeltaRows,
		SoftBytes: o.SoftDeltaBytes,
		HardBytes: o.HardDeltaBytes,
	}
}

// ErrOverloaded is returned by Exec when the engine is past its hard
// delta watermark (Options.HardDeltaRows/HardDeltaBytes): writes are
// refused until enough retained differential state is consumed or
// collected. Test with errors.Is.
var ErrOverloaded = storage.ErrOverloaded

// Open creates an empty engine with default options. The engine is
// instrumented: every layer reports into a metrics registry readable via
// Stats, WriteStats and StatsHandler. The hot-path cost is a handful of
// atomic adds per refresh.
func Open() *DB { return OpenWith(Options{}) }

// OpenWith creates an empty engine with explicit options.
func OpenWith(opts Options) *DB {
	store := storage.NewStore()
	reg := obs.NewRegistry()
	store.Instrument(reg)
	// An unknown strategy string falls back to auto: Options are often
	// populated from flags or config files, and a typo there should not
	// silently disable the engine — auto is correct for every query.
	strat, err := dra.ParseStrategy(opts.Strategy)
	if err != nil {
		strat = dra.StrategyAuto
	}
	store.SetWatermarks(opts.watermarks())
	manager := cq.NewManagerConfig(store, cq.Config{
		UseDRA:      true,
		AutoGC:      true,
		Parallelism: opts.Parallelism,
		Strategy:    strat,
		Metrics:     reg,
		Push:        opts.Push,
		PushQueue:   opts.PushQueue,
		Guard:       opts.guardPolicy(),

		ShareTemplates: opts.ShareTemplates,
	})
	return &DB{
		store:    store,
		manager:  manager,
		mediator: diom.NewMediator(store),
		metrics:  reg,
	}
}

// OpenDurable opens (or creates) a durable engine rooted at
// opts.DataDir. Committed state survives restarts: recovery loads the
// newest checkpoint, replays the WAL tail, and resumes every continual
// query at its last logged execution, so the first Poll after a crash
// computes an ordinary differential catch-up over the missed window.
func OpenDurable(opts Options) (*DB, error) {
	if opts.DataDir == "" {
		return nil, errors.New("continual: OpenDurable needs Options.DataDir")
	}
	pol, err := wal.ParseFsyncPolicy(opts.Fsync)
	if err != nil {
		return nil, fmt.Errorf("continual: %w", err)
	}
	strat, err := dra.ParseStrategy(opts.Strategy)
	if err != nil {
		strat = dra.StrategyAuto
	}
	reg := obs.NewRegistry()
	sys, err := durable.Open(durable.Options{
		Dir:             opts.DataDir,
		Fsync:           pol,
		CheckpointEvery: opts.CheckpointEvery,
		Metrics:         reg,
		Watermarks:      opts.watermarks(),
		CQ: cq.Config{
			UseDRA:      true,
			AutoGC:      true,
			Parallelism: opts.Parallelism,
			Strategy:    strat,
			Metrics:     reg,
			Push:        opts.Push,
			PushQueue:   opts.PushQueue,
			Guard:       opts.guardPolicy(),

			ShareTemplates: opts.ShareTemplates,
		},
	})
	if err != nil {
		return nil, err
	}
	return &DB{
		store:    sys.Store,
		manager:  sys.Manager,
		mediator: diom.NewMediator(sys.Store),
		metrics:  reg,
		durable:  sys,
	}, nil
}

// RecoveryInfo reports what OpenDurable rebuilt.
type RecoveryInfo struct {
	// FromCheckpoint is true when a checkpoint seeded the state.
	FromCheckpoint bool
	// Records is the number of WAL records replayed past the cut.
	Records int
	// CQs is the number of continual queries resumed.
	CQs int
}

// HasState reports whether recovery found any prior state at all.
func (r RecoveryInfo) HasState() bool { return r.FromCheckpoint || r.Records > 0 }

// Recovery describes what opening this engine recovered (zero for
// in-memory engines and fresh data directories).
func (db *DB) Recovery() RecoveryInfo {
	if db.durable == nil {
		return RecoveryInfo{}
	}
	return RecoveryInfo{
		FromCheckpoint: db.durable.Recovery.FromCheckpoint,
		Records:        db.durable.Recovery.Records,
		CQs:            db.durable.Recovery.CQs,
	}
}

// Checkpoint durably snapshots the store, the CQ registry, and the log
// position, truncating the replay work a future recovery must do.
// Errors for in-memory engines.
func (db *DB) Checkpoint() error {
	if db.durable == nil {
		return errors.New("continual: Checkpoint needs a durable engine (OpenDurable)")
	}
	return db.durable.Checkpoint()
}

// Close shuts the engine down: the background loop stops and all
// subscription channels close. A durable engine writes a final
// checkpoint first, so its next Open replays nothing.
func (db *DB) Close() error {
	if db.durable != nil {
		return db.durable.Close()
	}
	return db.manager.Close()
}

// Exec runs a DDL or DML statement (CREATE TABLE, DROP TABLE, INSERT,
// UPDATE, DELETE).
func (db *DB) Exec(statement string) error {
	stmt, err := sql.Parse(statement)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		return db.execCreateTable(s)
	case *sql.DropTableStmt:
		// Through the manager: refused while CQs still read the table
		// or a materializing CQ produces it.
		return db.manager.DropTable(s.Table)
	case *sql.InsertStmt:
		return db.execInsert(s)
	case *sql.UpdateStmt:
		return db.execUpdate(s)
	case *sql.DeleteStmt:
		return db.execDelete(s)
	case *sql.CreateCQStmt:
		return errors.New("continual: use RegisterSQL for CREATE CONTINUAL QUERY")
	case *sql.SelectStmt:
		return errors.New("continual: use Query for SELECT")
	default:
		return fmt.Errorf("continual: unsupported statement %T", stmt)
	}
}

// Query runs a one-shot SELECT and returns the materialized rows.
func (db *DB) Query(query string) (*Rows, error) {
	rel, err := db.queryRelation(query)
	if err != nil {
		return nil, err
	}
	return fromRelation(rel), nil
}

// Option configures a continual query registration.
type Option func(*cq.Def) error

// TriggerEvery refreshes the query every n committed transactions
// (logical clock ticks).
func TriggerEvery(n int64) Option {
	return func(d *cq.Def) error {
		if n <= 0 {
			return errors.New("continual: TriggerEvery needs n > 0")
		}
		d.Trigger = sql.TriggerSpec{Kind: sql.TriggerEvery, Every: n}
		return nil
	}
}

// TriggerUpdates refreshes the query after n update rows have touched its
// operand tables.
func TriggerUpdates(n int64) Option {
	return func(d *cq.Def) error {
		if n <= 0 {
			return errors.New("continual: TriggerUpdates needs n > 0")
		}
		d.Trigger = sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: n}
		return nil
	}
}

// TriggerEpsilon refreshes the query when the accumulated net change of
// the expression (e.g. "amount") across unseen updates reaches bound —
// the paper's epsilon specification (Section 3.2).
func TriggerEpsilon(bound float64, expr string) Option {
	return func(d *cq.Def) error {
		parsed, err := sql.ParseExpr(expr)
		if err != nil {
			return fmt.Errorf("continual: epsilon expression: %w", err)
		}
		d.Trigger = sql.TriggerSpec{Kind: sql.TriggerEpsilon, Bound: bound, On: parsed}
		return nil
	}
}

// EpsilonAbsolute switches epsilon accumulation from net change to
// absolute per-update magnitude (catches churn that nets to zero).
func EpsilonAbsolute() Option {
	return func(d *cq.Def) error {
		d.EpsilonMeasure = epsilon.MeasureAbsolute
		return nil
	}
}

// WithMode selects the notification mode.
func WithMode(m Mode) Option {
	return func(d *cq.Def) error {
		switch m {
		case Differential:
			d.Mode = sql.ModeDifferential
		case Complete:
			d.Mode = sql.ModeComplete
		case Deletions:
			d.Mode = sql.ModeDeletions
		default:
			return fmt.Errorf("continual: unknown mode %d", m)
		}
		return nil
	}
}

// StopAfter terminates the continual query after n executions (the
// initial execution counts as 1).
func StopAfter(n int64) Option {
	return func(d *cq.Def) error {
		if n <= 0 {
			return errors.New("continual: StopAfter needs n > 0")
		}
		d.Stop = sql.StopSpec{AfterN: n}
		return nil
	}
}

// NotifyEmpty delivers refreshes even when nothing changed.
func NotifyEmpty() Option {
	return func(d *cq.Def) error {
		d.NotifyEmpty = true
		return nil
	}
}

// Register installs a continual query and returns a subscription. The
// query's initial result is available immediately via Subscription.Result.
// The default trigger refreshes on every update batch; the default mode
// is Differential.
func (db *DB) Register(name, query string, opts ...Option) (*Subscription, error) {
	def := cq.Def{Name: name, Query: query}
	for _, opt := range opts {
		if err := opt(&def); err != nil {
			return nil, err
		}
	}
	initial, err := db.manager.Register(def)
	if err != nil {
		return nil, err
	}
	return db.subscribe(name, initial)
}

// RegisterSQL installs a continual query from a CREATE CONTINUAL QUERY
// statement:
//
//	CREATE CONTINUAL QUERY banksum AS
//	  SELECT SUM(amount) AS total FROM accounts
//	  TRIGGER EPSILON 500000 ON amount
//	  MODE COMPLETE
//	  STOP AFTER 100
func (db *DB) RegisterSQL(statement string) (*Subscription, error) {
	stmt, err := sql.Parse(statement)
	if err != nil {
		return nil, err
	}
	create, ok := stmt.(*sql.CreateCQStmt)
	if !ok {
		return nil, errors.New("continual: expected CREATE CONTINUAL QUERY")
	}
	initial, err := db.manager.Register(cq.Def{
		Name:    create.Name,
		Select:  create.Select,
		Trigger: create.Trigger,
		Mode:    create.Mode,
		Stop:    create.Stop,
	})
	if err != nil {
		return nil, err
	}
	return db.subscribe(create.Name, initial)
}

// Poll evaluates every registered trigger against the pending updates and
// refreshes the queries whose condition fired, synchronously. It returns
// the number of refreshes.
func (db *DB) Poll() int {
	n, _ := db.manager.Poll()
	return n
}

// Start launches a background loop calling Poll every interval. Close
// stops it.
func (db *DB) Start(interval time.Duration) error { return db.manager.Start(interval) }

// FlushPush blocks until every commit already routed through the push
// pipeline has dispatched its refresh — the quiescence barrier for
// callers that need "everything committed so far has notified" (tests,
// graceful shutdown). A no-op unless Options.Push is set.
func (db *DB) FlushPush() { db.manager.FlushPush() }

// CQNames lists registered continual queries.
func (db *DB) CQNames() []string { return db.manager.Names() }

// DropCQ removes a continual query and closes its subscriptions. A
// materializing CQ (SELECT ... INTO) takes its derived table with it;
// while other CQs still read that table the drop is refused and the
// error lists them.
func (db *DB) DropCQ(name string) error { return db.manager.Drop(name) }

// Tables lists the tables (including wrapped sources).
func (db *DB) Tables() []string { return db.store.TableNames() }

// DepNode describes one continual query's place in the cascade
// dependency DAG: the tables it reads, the table it materializes
// (SELECT ... INTO; empty for terminal queries), and its topological
// refresh stage.
type DepNode struct {
	CQ      string
	Sources []string
	Target  string
	Stage   int
}

// Deps snapshots the cascade dependency DAG in topological
// (stage, name) order.
func (db *DB) Deps() []DepNode {
	nodes := db.manager.Deps()
	out := make([]DepNode, len(nodes))
	for i, n := range nodes {
		out[i] = DepNode{CQ: n.CQ, Sources: n.Sources, Target: n.Target, Stage: n.Stage}
	}
	return out
}
