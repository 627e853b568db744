// Package cq implements the continual query manager. A continual query
// (Section 3.1) is a triple (Q, Tcq, Stop): a query, a triggering
// condition, and a termination condition. The manager owns the result
// sequence Q(S1), Q(S2), ... — it runs the initial execution at
// registration, evaluates trigger conditions differentially over the
// update stream (Section 5.3), re-evaluates fired queries through the DRA
// engine (Section 4.3), assembles the per-mode answer (differential,
// complete, or deletions-only), garbage collects differential relations
// past the system active delta zone (Section 5.4), and delivers
// notifications to subscribers.
package cq

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/cascade"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/push"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// Errors returned by the manager.
var (
	ErrDuplicateCQ = errors.New("cq: a continual query with this name exists")
	ErrNoSuchCQ    = errors.New("cq: no such continual query")
	ErrTerminated  = errors.New("cq: continual query has terminated")
	ErrClosed      = errors.New("cq: manager is closed")
	// ErrNameCollision marks a registration (or DDL through the manager)
	// that would make a continual-query name and a table name shadow each
	// other: CQ names, INTO targets and base tables share one namespace.
	ErrNameCollision = errors.New("cq: name collides across queries and tables")
)

// Notification is one element of a CQ's result sequence, shaped by the
// query's result mode (Section 4.3 step 4).
type Notification struct {
	CQName string
	// Seq numbers the executions; the initial execution is 1.
	Seq int
	// ExecTS is the logical time of this execution.
	ExecTS vclock.Timestamp
	Mode   sql.ResultMode
	// Initial marks the first execution (full evaluation; Inserted holds
	// the whole result).
	Initial bool

	// Inserted/Deleted/Modified describe the difference from the previous
	// result (set in ModeDifferential; Deleted also in ModeDeletions).
	Inserted *relation.Relation
	Deleted  *relation.Relation
	Modified []delta.Row

	// Complete holds the full current result (set in ModeComplete).
	Complete *relation.Relation

	// Terminated reports the Stop condition became true; this is the last
	// notification for the CQ.
	Terminated bool

	// Dropped is the number of notifications this subscriber lost since
	// the one it last received (full buffer under a backpressure policy,
	// or the catch-up gap after a Resubscribe). Zero means the sequence
	// is gap-free. Subscribers that care re-fetch Result() or treat
	// Dropped > 0 as a rebase signal.
	Dropped int
}

// Empty reports whether the notification carries no change.
func (n Notification) Empty() bool {
	return !n.Initial &&
		(n.Inserted == nil || n.Inserted.Len() == 0) &&
		(n.Deleted == nil || n.Deleted.Len() == 0) &&
		len(n.Modified) == 0 &&
		n.Complete == nil
}

// Def defines a continual query for registration.
type Def struct {
	Name    string
	Query   string // SELECT text; alternatively set Select
	Select  *sql.SelectStmt
	Trigger sql.TriggerSpec
	Mode    sql.ResultMode
	Stop    sql.StopSpec
	// EpsilonMeasure selects net (default) or absolute accumulation for
	// TriggerEpsilon.
	EpsilonMeasure epsilon.Measure
	// NotifyEmpty delivers refreshes that produced no change (off by
	// default: Section 5.2 — "nothing needs to be returned").
	NotifyEmpty bool
}

// DeliveryPolicy selects what deliver does when a channel subscriber's
// buffer is full. Whatever the policy, sends never block a refresh —
// a slow consumer costs itself notifications, never the engine.
type DeliveryPolicy int

const (
	// DropNewest (the default, and the pre-policy behavior): discard
	// the new notification; the consumer keeps its queued backlog and
	// learns about the gap from Dropped on the next delivery.
	DropNewest DeliveryPolicy = iota
	// DropOldest: evict the oldest queued notification to make room
	// for the new one — the consumer always sees the freshest state,
	// with Dropped marking the gap.
	DropOldest
	// Disconnect: close the channel and detach the subscriber. The
	// final resume token (Sub.Resume) lets it reattach with
	// Manager.Resubscribe and catch up differentially.
	Disconnect
)

// subscriber is one notification sink: either a channel (sends never
// block: a full buffer invokes the delivery policy) or a synchronous
// callback. All fields below ch/fn/policy are guarded by the owning
// instance's mu.
type subscriber struct {
	ch     chan Notification
	fn     func(n Notification, closed bool)
	policy DeliveryPolicy
	// dropped is the lifetime drop count; droppedSince counts drops
	// since the last successful delivery and is folded into the next
	// delivered Notification.Dropped (gap detection).
	dropped      int
	droppedSince int
	// lastSeq/lastTS identify the newest notification this subscriber
	// actually received — the resume point after Disconnect.
	lastSeq int
	lastTS  vclock.Timestamp
	// disconnected marks a subscriber detached by policy (channel
	// already closed) or by a panicking callback.
	disconnected bool
}

// SubOptions configures a subscription (SubscribeOpts, Resubscribe).
type SubOptions struct {
	// Buffer is the channel capacity (minimum 1).
	Buffer int
	// Policy is the full-buffer backpressure policy.
	Policy DeliveryPolicy
}

// ResumeToken identifies where a disconnected subscriber left off.
type ResumeToken struct {
	CQ  string
	Seq int // last sequence number received (0 = none)
	TS  vclock.Timestamp
}

// Sub is a subscription handle with policy-aware state: the channel,
// cancellation, and — after a Disconnect — the resume token.
type Sub struct {
	inst *instance
	s    *subscriber
}

// Ch returns the notification channel. It is closed when the CQ is
// dropped, the manager closes, or the Disconnect policy fires.
func (s *Sub) Ch() <-chan Notification { return s.s.ch }

// Cancel detaches the subscription (idempotent; safe after disconnect).
func (s *Sub) Cancel() {
	s.inst.mu.Lock()
	defer s.inst.mu.Unlock()
	for i, x := range s.inst.subs {
		if x == s.s {
			s.inst.subs = append(s.inst.subs[:i], s.inst.subs[i+1:]...)
			break
		}
	}
}

// Disconnected reports whether the Disconnect policy detached this
// subscription (its channel is closed).
func (s *Sub) Disconnected() bool {
	s.inst.mu.Lock()
	defer s.inst.mu.Unlock()
	return s.s.disconnected
}

// Resume returns the token identifying the last notification this
// subscription received, for Manager.Resubscribe.
func (s *Sub) Resume() ResumeToken {
	s.inst.mu.Lock()
	defer s.inst.mu.Unlock()
	return ResumeToken{CQ: s.inst.def.Name, Seq: s.s.lastSeq, TS: s.s.lastTS}
}

// CQState is a read-only snapshot of a registered CQ, for inspection.
type CQState struct {
	Name       string
	Seq        int
	LastExec   vclock.Timestamp
	Terminated bool
	ResultLen  int
	Divergence float64
	// Strategy is the refresh pipeline currently in effect for a
	// prepared SPJ CQ ("truth-table", "propagate");
	// empty for CQs maintained by a non-SPJ state keeper or evaluated
	// without DRA.
	Strategy string
	// LastErr is the error of the most recent failed trigger evaluation
	// or refresh for this CQ (nil after a successful refresh). Poll
	// isolates per-CQ failures — the round continues for the others —
	// so this is where a single CQ's persistent failure surfaces.
	// Panics and budget timeouts land here too, as *guard.PanicError
	// and guard.ErrBudgetExceeded wrappers.
	LastErr error
	// Health is the guard state: "healthy", "probation", "quarantined".
	Health string
	// Failures is the consecutive refresh-failure count feeding the
	// quarantine breaker (resets on success).
	Failures int
	// NotifsDropped counts notifications this CQ's subscribers lost to
	// full buffers (all subscribers, lifetime).
	NotifsDropped int64
	// Template is the shared-template fingerprint this CQ subscribes to
	// (Config.ShareTemplates), 0 when the CQ runs a private plan.
	Template uint64
	// TemplateMates is the current member count of the CQ's template
	// group, this CQ included (0 when unshared).
	TemplateMates int
}

// instance is the manager's record of one registered CQ.
type instance struct {
	def     Def
	plan    algebra.Plan
	tables  []string
	mode    sql.ResultMode
	trigger sql.TriggerSpec
	stop    sql.StopSpec
	// queryText is the canonical rendering of the query, captured at
	// registration; the durable registry persists it and re-parses it at
	// recovery.
	queryText string
	// into is the materialization target (SELECT ... INTO): each refresh
	// commits the result delta into this derived base table. Empty for
	// terminal queries; immutable after the instance becomes visible.
	// The cascade refresh stage is NOT cached here — it lives in the
	// dependency DAG (Manager.dag, self-locked) because a later
	// registration can bump it retroactively: a producer adopting an
	// orphaned target table promotes that table's existing readers one
	// stage down the pipeline.
	into string

	// mu guards the mutable refresh state below (and subs). Lock order
	// is Manager.mu before instance.mu; the refresh workers of a Poll
	// round take only instance.mu, which is what lets DRA re-evaluation
	// and notification delivery run outside the manager lock.
	mu          sync.Mutex
	lastExec    vclock.Timestamp // timestamp of the last execution
	lastObs     vclock.Timestamp // high-water mark of observed updates
	prev        *relation.Relation
	seq         int
	updatesSeen int64
	lastErr     error                          // see CQState.LastErr
	eps         map[string]*epsilon.Accountant // per monitored table
	subs        []*subscriber
	// maint maintains non-SPJ roots incrementally when the shape allows
	// (SUM/COUNT/AVG aggregates without HAVING; DISTINCT); nil when the
	// query is SPJ or needs the Propagate fallback.
	maint maintainer
	// prepared is the compile-once refresh pipeline for SPJ queries
	// (dra.Prepare): compiled predicates, join bindings, the cross-
	// refresh operand index cache, and the refresh strategy. Nil when
	// maint is set or DRA is off.
	prepared *dra.Prepared

	// terminated is atomic (not under mu) so the manager-lock paths
	// (gauge recomputation, GC horizon) can read it while a refresh
	// worker holds this instance's mu.
	terminated atomic.Bool
	// dropped is set by Drop under mu and read by refresh attempts
	// after they acquire mu (and atomically by skip paths): a dropped
	// instance must not journal executions or mutate state, or a
	// drop racing an in-flight refresh would write an execution record
	// after the drop record and corrupt recovery.
	dropped atomic.Bool
	// notifDropped is the per-CQ total of notifications lost to full
	// subscriber buffers (CQState.NotifsDropped). Guarded by mu.
	notifDropped int64

	// group is the shared-template group this CQ subscribes to
	// (Config.ShareTemplates), nil when unshared; groupParams is the
	// member's constant vector, aligned with the template's slots.
	// Written at registration/resume under m.mu before the instance is
	// visible, cleared by Drop under inst.mu.
	group       *templateGroup
	groupParams []relation.Value
	// pendingSync marks a recovered member that has not yet rejoined
	// the template stream: its next refresh is a private full-plan
	// differential catch-up, after which buffered template batches it
	// covers are discarded (afterRefreshLocked). Guarded by mu.
	pendingSync bool
	// needsReconcile marks a recovered materializing CQ whose first
	// refresh must reconcile the whole INTO target against the new
	// result instead of trusting the delta: the crash may sit between
	// the last materialize commit and its execution record
	// (materialize.go). Guarded by mu.
	needsReconcile bool

	// breaker is the CQ's quarantine circuit breaker — a self-locked
	// leaf, consultable under any manager/instance lock.
	breaker *guard.Breaker
	// guardErr records a guard verdict (budget timeout) that could not
	// be written to lastErr because the late refresh still holds mu.
	// Cleared at the start of every guarded attempt; read by State.
	guardErr atomic.Pointer[error]
}

// maintainer abstracts the incremental state keepers of the dra package
// (IncrementalAggregate, IncrementalDistinct).
type maintainer interface {
	Step(ctx *dra.Context, execTS vclock.Timestamp) (*dra.Result, error)
	Result() *relation.Relation
}

// Config tunes the manager.
type Config struct {
	// UseDRA selects differential re-evaluation; false uses complete
	// re-evaluation (the baseline), useful for benchmarking.
	UseDRA bool
	// Engine supplies the DRA engine; nil gets a default engine.
	Engine *dra.Engine
	// AutoGC collects differential-relation garbage after every refresh
	// round, at the system active delta zone boundary.
	AutoGC bool
	// Strategy selects the refresh pipeline for prepared SPJ CQs
	// (dra.Prepare): StrategyAuto (the default) applies the cost model
	// and re-picks adaptively; the other values force one pipeline. A
	// forced strategy a CQ's plan cannot run falls back to Auto at
	// registration — logged through Logf and counted in
	// cq.maintainer.fallbacks.
	Strategy dra.Strategy
	// Logf receives the manager's rare diagnostic lines (strategy
	// fallbacks at registration). Nil uses the standard library logger.
	Logf func(format string, args ...any)
	// Parallelism bounds the worker pool Poll uses to refresh the fired
	// CQs of a round concurrently. 0 (the default) uses GOMAXPROCS;
	// 1 restores the serial refresh order. Whatever the pool size,
	// per-CQ Seq stays monotonic and each CQ's notifications are
	// delivered in order — only cross-CQ ordering within a round is
	// unspecified.
	Parallelism int
	// Metrics attaches the manager (and its engine, unless the engine is
	// already instrumented) to an obs registry. Nil disables
	// instrumentation entirely: every hook reduces to a nil check, so
	// the uninstrumented refresh path is benchmarkable against the
	// instrumented one.
	Metrics *obs.Registry
	// Journal, when set, receives every registry mutation and every
	// delivered execution in write-ahead order (see Journal). Nil on
	// in-memory managers.
	Journal Journal
	// Push enables commit-driven reactive refresh: the store's commit
	// hook publishes every committed delta into a router that evaluates
	// the affected CQs' triggers immediately instead of waiting for the
	// next Poll tick. The poll loop remains the fallback — time-based
	// (TriggerEvery) CQs are never routed (a commit says nothing about
	// the clock), and queue overflow degrades to batched polling — so
	// callers should keep Start running at a relaxed interval. Every
	// invariant of the poll path carries over: per-CQ Seq stays
	// gap-free and monotonic under mixed push/poll, notifications
	// journal before delivery, and a refresh delivered by push is
	// skipped by a racing Poll (and vice versa) rather than duplicated.
	Push bool
	// PushQueue bounds the push router's ready queue (default
	// push.DefaultQueue). A queued CQ coalesces later commits instead
	// of re-queueing, so capacity >= registered CQs makes overflow
	// impossible.
	PushQueue int
	// Guard configures overload protection: the per-refresh deadline
	// (Budget; zero disables deadlines but panic isolation is always
	// on) and the quarantine circuit breaker (FailureThreshold,
	// BackoffBase/Max/Jitter). The zero value gets guard defaults:
	// no budget, quarantine after 3 consecutive failures.
	Guard guard.Policy
	// MaxCascadeDepth bounds the length of materialization pipelines
	// (SELECT ... INTO chains): a registration whose derived table would
	// sit more than this many commit hops from the originating client
	// write is rejected with cascade.ErrTooDeep. 0 uses
	// cascade.DefaultMaxDepth.
	MaxCascadeDepth int
	// ShareTemplates deduplicates structurally identical CQs: queries
	// differing only in comparison constants (`price > 5` vs
	// `price > 90`) share one prepared template plan and one operand
	// index cache, with a parameter-dispatch stage routing each
	// template delta row to the matching subscribers (see template.go).
	// Per-CQ triggers, Seq, journaling, health and delivery semantics
	// are unchanged; queries whose shape cannot be templated register
	// unshared exactly as with ShareTemplates off.
	ShareTemplates bool
}

// Manager owns the registered continual queries over one store.
type Manager struct {
	store *storage.Store
	cfg   Config
	met   *metrics // nil when Config.Metrics is nil

	mu     sync.Mutex
	cqs    map[string]*instance
	closed bool
	// dag is the cascade dependency registry: every CQ enters it as a
	// reader of its source tables, materializing CQs also as the
	// producer of their INTO target. It is a self-locked leaf,
	// consultable under (or without) mu.
	dag *cascade.Registry
	// templates is the shared-template registry (Config.ShareTemplates):
	// template fingerprint → group. Guarded by mu; each group's own
	// refresh state lives behind its leaf lock (see template.go).
	templates map[uint64]*templateGroup

	// router is the push subsystem (nil unless Config.Push): it owns
	// the store's commit hook and the dispatcher workers. Guarded by mu
	// for replacement; the router itself is concurrency-safe.
	router *push.Router
	// pushGCTicks throttles AutoGC on the push path: collecting after
	// every dispatch would cost O(CQs) per commit, so push GCs every
	// pushGCEvery refreshes and lets the poll loop do the rest.
	pushGCTicks atomic.Uint64

	// guardPol is Config.Guard with defaults applied; breakerSeed
	// derives a distinct jitter stream per breaker.
	guardPol    guard.Policy
	breakerSeed atomic.Int64

	// background loop lifecycle
	loopStop chan struct{}
	loopDone chan struct{}
}

// pushGCEvery is the push-path AutoGC period, in push refreshes.
const pushGCEvery = 64

// NewManager creates a manager with differential re-evaluation enabled.
func NewManager(store *storage.Store) *Manager {
	return NewManagerConfig(store, Config{UseDRA: true, AutoGC: true})
}

// NewManagerConfig creates a manager with explicit configuration.
func NewManagerConfig(store *storage.Store, cfg Config) *Manager {
	if cfg.Engine == nil {
		cfg.Engine = dra.NewEngine()
	}
	if cfg.Metrics != nil && cfg.Engine.Metrics == nil {
		cfg.Engine.Instrument(cfg.Metrics)
	}
	m := &Manager{
		store:     store,
		cfg:       cfg,
		met:       newMetrics(cfg.Metrics),
		cqs:       make(map[string]*instance),
		templates: make(map[uint64]*templateGroup),
		dag:       cascade.New(cfg.MaxCascadeDepth),
	}
	m.guardPol = cfg.Guard.WithDefaults()
	// Degraded-mode hook: a watermark trip runs emergency GC to shed
	// delta retention. Invoked on the store's own goroutine, never
	// under its mutex, so CollectGarbage is safe here.
	store.SetPressureHook(m.onPressure)
	if cfg.Push {
		m.router = push.NewRouter(push.Config{
			Queue:   cfg.PushQueue,
			Workers: cfg.Parallelism,
			Metrics: cfg.Metrics,
			Logf:    cfg.Logf,
		}, m.pushDispatch)
		store.SetCommitHook(m.router.Publish)
	}
	return m
}

// Stats returns a point-in-time snapshot of the metrics registry this
// manager was configured with (empty when uninstrumented).
func (m *Manager) Stats() obs.Snapshot { return m.cfg.Metrics.Snapshot() }

// Traces returns the trace log of recent refresh spans (nil when
// uninstrumented).
func (m *Manager) Traces() *obs.TraceLog { return m.cfg.Metrics.Traces() }

// Register installs a continual query, runs its initial execution, and
// notifies subscribers attached later only with subsequent refreshes (the
// initial result is returned).
func (m *Manager) Register(def Def) (*relation.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if def.Name == "" {
		return nil, errors.New("cq: name required")
	}
	if _, dup := m.cqs[def.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateCQ, def.Name)
	}
	if _, serr := m.store.Schema(def.Name); serr == nil {
		return nil, fmt.Errorf("%w: continual query %q would shadow a table", ErrNameCollision, def.Name)
	}
	stmt := def.Select
	if stmt == nil {
		parsed, err := sql.ParseSelect(def.Query)
		if err != nil {
			return nil, err
		}
		stmt = parsed
	}
	if stmt.Into != "" {
		if stmt.Into == def.Name {
			return nil, fmt.Errorf("%w: INTO target %q equals the query name", ErrNameCollision, stmt.Into)
		}
		if _, ok := m.cqs[stmt.Into]; ok {
			return nil, fmt.Errorf("%w: INTO target %q is a registered continual query", ErrNameCollision, stmt.Into)
		}
	}
	if def.Mode == 0 {
		def.Mode = sql.ModeDifferential
	}
	if def.Trigger.Kind == 0 {
		def.Trigger = sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 1}
	}

	plan, err := algebra.PlanSelect(stmt, m.store.Live())
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan)

	inst := &instance{
		def:       def,
		plan:      plan,
		mode:      def.Mode,
		trigger:   def.Trigger,
		stop:      def.Stop,
		queryText: stmt.String(),
		breaker:   m.newBreaker(),
	}
	for _, scan := range algebra.Tables(plan) {
		inst.tables = append(inst.tables, scan.Table)
	}

	// Every CQ enters the dependency DAG — terminal queries as readers
	// (dependent tracking), INTO queries also as their target's producer
	// (stage assignment, cycle and depth checks). Any later failure must
	// leave no edges (and no half-created target table) behind.
	if _, err := m.dag.Register(def.Name, inst.tables, stmt.Into); err != nil {
		return nil, err
	}
	inst.into = stmt.Into
	installed := false
	createdTarget := false
	defer func() {
		if installed {
			return
		}
		m.dag.Unregister(def.Name)
		if createdTarget {
			_ = m.store.DropTable(stmt.Into)
		}
	}()

	if def.Trigger.Kind == sql.TriggerEpsilon {
		if err := m.setupEpsilon(inst, stmt); err != nil {
			return nil, err
		}
	}

	// Initial execution (Section 4.2: Algorithm 1 applies "after its
	// initial execution"). Aggregate queries get an incremental
	// maintainer when the shape allows (SUM/COUNT/AVG, no HAVING); it
	// seeds its state from the same initial pass.
	var initial *relation.Relation
	if m.cfg.UseDRA {
		maint, err := newMaintainer(m.cfg, plan, m.store.Live())
		if err != nil {
			return nil, err
		}
		if maint != nil {
			inst.maint = maint
			initial = maint.Result().Clone()
		} else {
			// Template sharing first: a shared member's initial result
			// is the parameter-filtered template result, and its
			// lastExec is pinned to the group's step position by the
			// join. Unshareable shapes fall through to a private plan.
			// Materializing CQs never share — their refreshes commit
			// into a private target, so the plan stays private too.
			var sharedInit *relation.Relation
			var shared bool
			if stmt.Into == "" {
				sharedInit, shared, err = m.joinTemplateLocked(inst, false)
				if err != nil {
					return nil, err
				}
			}
			if shared {
				initial = sharedInit
			} else {
				prep, err := m.prepare(def.Name, plan)
				if err != nil {
					return nil, err
				}
				inst.prepared = prep
			}
		}
	}
	if initial == nil {
		res, err := dra.InitialResult(plan, m.store.Live())
		if err != nil {
			if inst.group != nil {
				m.leaveTemplateLocked(inst)
			}
			return nil, err
		}
		initial = res
	}
	if inst.into != "" {
		// Create (or adopt, see ensureTargetLocked) the target table and
		// seed it to the initial result BEFORE taking lastExec: the seed
		// commit ticks the clock, so it lands below every window this CQ
		// or its downstream readers will ever evaluate.
		created, terr := m.ensureTargetLocked(inst, initial)
		createdTarget = created
		if terr != nil {
			if inst.prepared != nil {
				inst.prepared.Close()
			}
			return nil, fmt.Errorf("cq %q: materialize target %q: %w", def.Name, inst.into, terr)
		}
	}
	inst.prev = initial
	inst.seq = 1
	if inst.group == nil {
		inst.lastExec = m.store.Now()
		inst.lastObs = inst.lastExec
	}
	// Journal before the registry mutation becomes visible: a journal
	// failure fails the registration with the manager unchanged.
	if m.cfg.Journal != nil {
		inst.mu.Lock()
		entry := m.entryLocked(inst)
		inst.mu.Unlock()
		if err := m.cfg.Journal.CQRegistered(entry); err != nil {
			if inst.prepared != nil {
				inst.prepared.Close()
			}
			if inst.group != nil {
				m.leaveTemplateLocked(inst)
			}
			return nil, fmt.Errorf("cq %q: journal registration: %w", def.Name, err)
		}
	}
	m.cqs[def.Name] = inst
	m.routePushLocked(inst)
	m.registeredDeltaLocked(inst, +1)
	installed = true
	return initial.Clone(), nil
}

// routePushLocked indexes a CQ in the push router. Time-based triggers
// are never routed: a commit carries no information about the clock, so
// TriggerEvery CQs stay on the poll loop — the trigger-kind routing
// rule of the hybrid execution model. Caller holds m.mu.
func (m *Manager) routePushLocked(inst *instance) {
	if m.router == nil || inst.trigger.Kind == sql.TriggerEvery || inst.terminated.Load() {
		return
	}
	// Grouped members are covered by their template's single route
	// (routeTemplateLocked): one queue entry per touched template, not
	// one per member.
	if inst.group != nil {
		return
	}
	// The gate lets the router skip quarantined CQs without dispatching:
	// it runs under the router's (and possibly the store's) lock, so it
	// must stay a side-effect-free breaker read.
	b := inst.breaker
	m.router.Register(inst.def.Name, inst.operandTables(), func() bool {
		return !b.Blocked()
	})
}

// newBreaker mints a quarantine breaker with a per-CQ jitter stream.
func (m *Manager) newBreaker() *guard.Breaker {
	return guard.NewBreaker(m.guardPol, m.breakerSeed.Add(1))
}

// operandTables is the CQ's routing key: the operand set of its
// prepared plan when it has one (dra.Prepared.Tables — the same set the
// operand index cache is keyed by), the plan scan set otherwise.
func (inst *instance) operandTables() []string {
	if inst.prepared != nil {
		return inst.prepared.Tables()
	}
	return inst.tables
}

// updateRegisteredLocked recomputes the live-CQ and health gauges.
// Caller holds m.mu (breakers are self-locked leaves, safe to read here).
// registeredDeltaLocked adjusts the population gauges for one instance
// arriving (+1) or leaving (-1) without sweeping the registry: Register
// and Drop on a million-CQ manager must stay O(1), and the full sweep
// made them O(n) each — quadratic across a bulk registration. The
// authoritative sweep (updateRegisteredLocked) still runs once per poll
// round, so any drift from concurrent health transitions self-corrects
// at the next round. Caller holds m.mu.
func (m *Manager) registeredDeltaLocked(inst *instance, dir int64) {
	if m.met == nil || inst.terminated.Load() {
		return // sweeps never count terminated instances either
	}
	m.met.registered.Add(dir)
	switch inst.breaker.State() {
	case guard.Probation:
		m.met.healthProbation.Add(dir)
	case guard.Quarantined:
		m.met.healthQuarantined.Add(dir)
	default:
		m.met.healthHealthy.Add(dir)
	}
}

func (m *Manager) updateRegisteredLocked() {
	if m.met == nil {
		return
	}
	live, healthy, probation, quarantined := 0, 0, 0, 0
	for _, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		live++
		switch inst.breaker.State() {
		case guard.Probation:
			probation++
		case guard.Quarantined:
			quarantined++
		default:
			healthy++
		}
	}
	m.met.registered.Set(int64(live))
	m.met.healthHealthy.Set(int64(healthy))
	m.met.healthProbation.Set(int64(probation))
	m.met.healthQuarantined.Set(int64(quarantined))
}

// Health summarizes the guard state of the registry for readiness and
// operator surfaces.
type Health struct {
	Healthy     int
	Probation   int
	Quarantined int
	// Degraded lists the CQs currently in probation or quarantine
	// (sorted).
	Degraded []string
}

// Health reports how many CQs are healthy, probing, or quarantined.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out Health
	for name, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		switch inst.breaker.State() {
		case guard.Probation:
			out.Probation++
			out.Degraded = append(out.Degraded, name)
		case guard.Quarantined:
			out.Quarantined++
			out.Degraded = append(out.Degraded, name)
		default:
			out.Healthy++
		}
	}
	sort.Strings(out.Degraded)
	m.updateRegisteredLocked()
	return out
}

// setupEpsilon resolves the monitored expression to the tables whose
// schemas it compiles against and installs accountants.
func (m *Manager) setupEpsilon(inst *instance, stmt *sql.SelectStmt) error {
	on := inst.trigger.On
	if on == nil {
		// Default: monitor the argument of the first aggregate in the
		// select list (the checking-account idiom: SELECT SUM(amount)).
		for _, it := range stmt.Items {
			if fc, ok := it.Expr.(*sql.FuncCall); ok && sql.AggregateFuncs[fc.Name] && fc.Arg != nil {
				on = fc.Arg
				break
			}
		}
		if on == nil {
			return errors.New("cq: epsilon trigger needs ON expression or an aggregate select list")
		}
	}
	spec := epsilon.Spec{Expr: on, Bound: inst.trigger.Bound, Measure: inst.def.EpsilonMeasure}
	inst.eps = make(map[string]*epsilon.Accountant)
	var attached []string
	for _, table := range inst.tables {
		schema, err := m.store.Schema(table)
		if err != nil {
			return err
		}
		acct, err := epsilon.NewAccountant(spec, schema)
		if err != nil {
			continue // expression does not apply to this table
		}
		inst.eps[table] = acct
		attached = append(attached, table)
	}
	if len(attached) == 0 {
		return fmt.Errorf("cq: epsilon expression %s matches no operand table", on)
	}
	return nil
}

// RegisterSQL installs a CQ from a CREATE CONTINUAL QUERY statement.
func (m *Manager) RegisterSQL(src string) (*relation.Relation, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	create, ok := stmt.(*sql.CreateCQStmt)
	if !ok {
		return nil, errors.New("cq: expected CREATE CONTINUAL QUERY")
	}
	return m.Register(Def{
		Name:    create.Name,
		Select:  create.Select,
		Trigger: create.Trigger,
		Mode:    create.Mode,
		Stop:    create.Stop,
	})
}

// Subscribe attaches a notification channel to a CQ with the default
// DropNewest backpressure policy. The returned cancel function detaches
// it. Sends never block; when the buffer is full the notification is
// dropped and the gap reported via Notification.Dropped.
func (m *Manager) Subscribe(name string, buf int) (<-chan Notification, func(), error) {
	sub, err := m.SubscribeOpts(name, SubOptions{Buffer: buf})
	if err != nil {
		return nil, nil, err
	}
	return sub.Ch(), sub.Cancel, nil
}

// SubscribeOpts attaches a notification channel with an explicit
// backpressure policy.
func (m *Manager) SubscribeOpts(name string, opts SubOptions) (*Sub, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	buf := opts.Buffer
	if buf < 1 {
		buf = 1
	}
	sub := &subscriber{ch: make(chan Notification, buf), policy: opts.Policy}
	inst.mu.Lock()
	sub.lastSeq, sub.lastTS = inst.seq, inst.lastExec
	inst.subs = append(inst.subs, sub)
	inst.mu.Unlock()
	return &Sub{inst: inst, s: sub}, nil
}

// Resubscribe reattaches a subscriber disconnected by the Disconnect
// policy (or any caller holding a ResumeToken). The returned
// Notification is a differential catch-up: the current complete result
// at the CQ's present sequence, with Dropped set to the number of
// notifications missed since the token. The snapshot and the new
// attachment happen atomically under the instance lock, so the
// subscription continues gap-free from the catch-up point.
func (m *Manager) Resubscribe(tok ResumeToken, opts SubOptions) (*Sub, Notification, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[tok.CQ]
	if !ok {
		return nil, Notification{}, fmt.Errorf("%w: %q", ErrNoSuchCQ, tok.CQ)
	}
	buf := opts.Buffer
	if buf < 1 {
		buf = 1
	}
	sub := &subscriber{ch: make(chan Notification, buf), policy: opts.Policy}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	missed := inst.seq - tok.Seq
	if missed < 0 {
		missed = 0
	}
	catch := Notification{
		CQName:     tok.CQ,
		Seq:        inst.seq,
		ExecTS:     inst.lastExec,
		Mode:       inst.mode,
		Complete:   inst.prev.Clone(),
		Terminated: inst.terminated.Load(),
		Dropped:    missed,
	}
	sub.lastSeq, sub.lastTS = inst.seq, inst.lastExec
	inst.subs = append(inst.subs, sub)
	return &Sub{inst: inst, s: sub}, catch, nil
}

// ResubscribeFunc is Resubscribe for callback subscribers (the public
// Subscription layer): the catch-up snapshot and the attachment happen
// atomically under the instance lock, so no notification falls between
// the returned catch-up and the first callback invocation.
func (m *Manager) ResubscribeFunc(tok ResumeToken, f func(n Notification, closed bool)) (func(), Notification, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[tok.CQ]
	if !ok {
		return nil, Notification{}, fmt.Errorf("%w: %q", ErrNoSuchCQ, tok.CQ)
	}
	sub := &subscriber{fn: f}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	missed := inst.seq - tok.Seq
	if missed < 0 {
		missed = 0
	}
	catch := Notification{
		CQName:     tok.CQ,
		Seq:        inst.seq,
		ExecTS:     inst.lastExec,
		Mode:       inst.mode,
		Complete:   inst.prev.Clone(),
		Terminated: inst.terminated.Load(),
		Dropped:    missed,
	}
	sub.lastSeq, sub.lastTS = inst.seq, inst.lastExec
	inst.subs = append(inst.subs, sub)
	cancel := func() {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		for i, s := range inst.subs {
			if s == sub {
				inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
				break
			}
		}
	}
	return cancel, catch, nil
}

// Names lists registered CQ names (sorted).
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.cqs))
	for n := range m.cqs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// State returns a snapshot of a CQ's bookkeeping.
func (m *Manager) State(name string) (CQState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return CQState{}, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	st := CQState{
		Name:          name,
		Seq:           inst.seq,
		LastExec:      inst.lastExec,
		Terminated:    inst.terminated.Load(),
		ResultLen:     inst.prev.Len(),
		LastErr:       inst.lastErr,
		Health:        inst.breaker.State().String(),
		Failures:      inst.breaker.Failures(),
		NotifsDropped: inst.notifDropped,
	}
	// A budget timeout could not write lastErr (the late refresh still
	// held the instance lock when the verdict landed); surface it here.
	if p := inst.guardErr.Load(); p != nil {
		st.LastErr = *p
	}
	if inst.prepared != nil {
		st.Strategy = inst.prepared.Strategy().String()
	}
	if g := inst.group; g != nil {
		st.Template = g.fp
		g.mu.Lock()
		st.TemplateMates = len(g.members)
		st.Strategy = g.prepared.Strategy().String()
		g.mu.Unlock()
	}
	for _, acct := range inst.eps {
		st.Divergence += acct.Divergence()
	}
	return st, nil
}

// Result returns a copy of the CQ's current complete result.
func (m *Manager) Result(name string) (*relation.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.prev.Clone(), nil
}

// Drop removes a CQ. A refresh of it already in flight completes (its
// subscribers are notified) before the subscriptions close.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	// A producer cannot be dropped out from under its readers: their
	// plans scan its derived table, and the recovery contract replays
	// the DAG in registration order — both break if the table vanishes.
	if deps := m.dag.Dependents(name); len(deps) > 0 {
		return &cascade.DependentsError{Name: name, Dependents: deps}
	}
	// The drop journals and tears down under the INSTANCE lock: a
	// refresh already holding it journals its execution first, so the
	// WAL never orders an execution record after the drop record
	// (replay refuses executions for unregistered CQs). Once the lock
	// is ours, the dropped flag stops any later refresh attempt from
	// journaling or resurrecting per-CQ state.
	//
	// Journal before the in-memory mutation: a drop that is not durable
	// must not happen in memory, or a restart would resurrect the CQ.
	inst.mu.Lock()
	inst.dropped.Store(true)
	if m.cfg.Journal != nil {
		if err := m.cfg.Journal.CQDropped(name); err != nil {
			inst.dropped.Store(false)
			inst.mu.Unlock()
			return fmt.Errorf("cq %q: journal drop: %w", name, err)
		}
	}
	closeSubs(inst)
	if inst.prepared != nil {
		inst.prepared.Close()
		inst.prepared = nil
	}
	if inst.group != nil {
		// Under inst.mu: an in-flight refresh of THIS member either
		// finished (it held the lock before us) or will see dropped and
		// skip; template-mates' refreshes only touch the group's leaf
		// lock, so removing the member here cannot deadlock or race a
		// dispatch into its pending buffer.
		m.leaveTemplateLocked(inst)
	}
	inst.mu.Unlock()
	delete(m.cqs, name)
	if m.router != nil {
		m.router.Unregister(name)
	}
	m.dag.Unregister(name)
	if inst.into != "" {
		// The derived table goes with its producer — no readers remain
		// (checked above). A failure is logged, not returned: the CQ
		// itself is already durably dropped.
		if derr := m.store.DropTable(inst.into); derr != nil {
			m.logf("cq %q: drop derived table %q: %v", name, inst.into, derr)
		}
	}
	m.registeredDeltaLocked(inst, -1)
	return nil
}

// closeSubs closes every subscription. Caller holds inst.mu. Callback
// subscribers are panic-isolated: teardown runs under manager locks, so
// a panicking callback must not unwind through Drop or Close.
func closeSubs(inst *instance) {
	for _, s := range inst.subs {
		if s.disconnected {
			continue // channel already closed by the Disconnect policy
		}
		if s.fn != nil {
			fn := s.fn
			_ = guard.Protect(func() error {
				fn(Notification{}, true)
				return nil
			})
		} else {
			close(s.ch)
		}
	}
	inst.subs = nil
}

// Poll evaluates all trigger conditions against the update stream and
// refreshes every CQ whose condition fired. It returns the number of
// refreshes performed. This is the synchronous entry point; Start runs it
// periodically (Section 5.3's "evaluate Tcq periodically" strategy).
//
// The round is a group refresh: triggers are evaluated under the
// manager lock at a single round timestamp, then the fired CQs are
// re-evaluated on a bounded worker pool (Config.Parallelism) holding
// only their per-instance locks, sharing one delta-window fetch per
// (table, window) through a round-scoped cache. A failing CQ does not
// abort the round: its error is recorded in CQState.LastErr, counted in
// cq.refresh.errors, and joined into Poll's returned error while every
// other CQ proceeds.
func (m *Manager) Poll() (int, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	if mm := m.met; mm != nil {
		mm.polls.Inc()
	}
	m.mu.Unlock()

	// Cascades refresh in topological stages: stage k's materialization
	// commits land before stage k+1 takes its round timestamp, so a
	// downstream CQ folds its upstream's round-N output within round N —
	// one poll round propagates a source commit through the whole DAG.
	// With no materializing CQs registered (MaxStage 0) the loop body
	// runs once and is exactly the old single-round Poll.
	n := 0
	var errs []error
	for stage := 0; ; stage++ {
		sn, serrs, more := m.pollStage(stage)
		n += sn
		errs = append(errs, serrs...)
		if !more {
			break
		}
	}

	m.mu.Lock()
	if !m.closed {
		m.updateRegisteredLocked()
		m.reapTemplatesLocked()
		if m.cfg.AutoGC {
			m.gcLocked()
		}
	}
	m.mu.Unlock()
	return n, errors.Join(errs...)
}

// pollStage runs one topological stage of a poll round: trigger
// evaluation under the manager lock at a stage-local timestamp, then the
// fired CQs of that stage on the worker pool. It reports whether deeper
// stages remain.
func (m *Manager) pollStage(stage int) (int, []error, bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, nil, false
	}
	more := stage < m.dag.MaxStage()
	// The change-counter snapshot MUST precede the round timestamp:
	// taken before Now(), the counters cover at most the commits older
	// than roundTS, which is what lets a prepared plan's operand cache
	// validate replicas by counter equality (dra.Context.Versions).
	var versions map[string]uint64
	if m.cfg.UseDRA {
		versions = m.store.ChangeCounts()
	}
	roundTS := m.store.Now()
	cache := m.store.NewWindowCache()
	var fired []*instance
	var errs []error
	for _, inst := range m.cqs {
		if m.dag.Stage(inst.def.Name) != stage {
			continue
		}
		if inst.terminated.Load() || inst.dropped.Load() {
			continue
		}
		// Quarantine gate: a CQ with too many consecutive failures is
		// skipped until its backoff expires, then admitted as a single
		// probe. Differential catch-up makes the skip safe — the probe
		// re-evaluates from lastExec and covers the whole gap.
		if !inst.breaker.Allow() {
			if mm := m.met; mm != nil {
				mm.quarantineSkips.Inc()
			}
			continue
		}
		should, err := m.observeAndTestLocked(inst, roundTS, cache)
		if err != nil {
			// One CQ's broken trigger must not starve the others: record
			// it and continue the round (Section 5.3 accounting is
			// per-CQ, so skipping one leaves the rest intact).
			errs = append(errs, fmt.Errorf("cq %q: %w", inst.def.Name, err))
			m.noteFailure(inst)
			continue
		}
		if mm := m.met; mm != nil {
			mm.triggerEvals.Inc()
			if should {
				mm.fireCounter(inst.trigger.Kind).Inc()
			}
		}
		if should {
			fired = append(fired, inst)
		} else {
			// The trigger did not fire: free the probe slot (no-op for
			// healthy CQs) so the next round can probe again.
			inst.breaker.Release()
		}
	}
	m.mu.Unlock()

	n, refErrs := m.refreshGroup(fired, roundTS, cache, versions)
	return n, append(errs, refErrs...), more
}

// refreshGroup re-evaluates the fired CQs of one round on a bounded
// worker pool. Workers hold only the per-instance lock, so a slow CQ no
// longer stalls the others, and N CQs over the same tables share one
// differential-window fetch through the round's cache — the paper's
// system active delta zone (Section 5.4) materialized once per round.
func (m *Manager) refreshGroup(fired []*instance, roundTS vclock.Timestamp, cache *storage.WindowCache, versions map[string]uint64) (int, []error) {
	if len(fired) == 0 {
		return 0, nil
	}
	workers := m.workerCount(len(fired))
	var start time.Time
	if mm := m.met; mm != nil {
		start = time.Now()
		mm.roundWorkers.Set(int64(workers))
	}
	type outcome struct {
		refreshed bool
		err       error
	}
	outs := make([]outcome, len(fired))
	run := func(i int) {
		refreshed, err := m.guardedRefresh(fired[i], roundTS, cache, versions, nil)
		outs[i] = outcome{refreshed: refreshed, err: err}
	}
	if workers <= 1 {
		for i := range fired {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			// guarded: guardedRefresh isolates per-item panics; nothing
			// in the loop body itself can panic.
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range fired {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	n := 0
	var errs []error
	for _, o := range outs {
		switch {
		case o.err != nil:
			errs = append(errs, o.err)
		case o.refreshed:
			n++
		}
	}
	if mm := m.met; mm != nil {
		mm.roundNS.Observe(time.Since(start))
	}
	return n, errs
}

// errSkipRefresh marks a guarded attempt that found nothing to do (the
// CQ terminated, was dropped, or a racing path already covered this
// timestamp). Not a failure, not a success: the breaker releases its
// probe slot and stays where it was.
var errSkipRefresh = errors.New("cq: refresh skipped")

// guardedRefresh runs one CQ's refresh under the guard layer: panic
// isolation always, the configured budget when set, and breaker
// accounting on every path. It reports whether a refresh was delivered.
//
// On a budget timeout the attempt goroutine is abandoned — Go cannot
// preempt it — and keeps the instance lock until it finishes; the
// monotonicity check makes its late completion harmless, and a reaper
// records the late outcome in metrics. The timeout itself counts as a
// breaker failure.
func (m *Manager) guardedRefresh(inst *instance, execTS vclock.Timestamp, cache *storage.WindowCache, versions map[string]uint64, pushed map[string][]push.BatchRef) (bool, error) {
	attempt := func() error {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		// A racing round (or explicit Refresh) may have re-evaluated
		// past this round's timestamp already; refreshing would move
		// lastExec backwards, so skip — monotonicity beats redundancy.
		if inst.dropped.Load() || inst.terminated.Load() || execTS <= inst.lastExec {
			return errSkipRefresh
		}
		inst.guardErr.Store(nil)
		if err := m.refreshInstance(inst, execTS, cache, versions, pushed); err != nil {
			inst.lastErr = err
			return err
		}
		inst.lastErr = nil
		return nil
	}
	err := guard.Attempt(m.guardPol.Budget, attempt, func(late error) {
		m.noteLate(inst, late)
	})
	switch {
	case err == nil:
		inst.breaker.Success()
		return true, nil
	case errors.Is(err, errSkipRefresh):
		inst.breaker.Release()
		return false, nil
	}
	var pe *guard.PanicError
	switch {
	case errors.As(err, &pe):
		if mm := m.met; mm != nil {
			mm.refreshPanics.Inc()
		}
		err = fmt.Errorf("cq %q: %w", inst.def.Name, err)
		// The panic unwound through the attempt's deferred unlock, so
		// the instance lock is free to record the error.
		inst.mu.Lock()
		inst.lastErr = err
		inst.mu.Unlock()
	case errors.Is(err, guard.ErrBudgetExceeded):
		if mm := m.met; mm != nil {
			mm.refreshTimeouts.Inc()
		}
		err = fmt.Errorf("cq %q: %w", inst.def.Name, err)
		// The abandoned attempt still holds the instance lock; park the
		// verdict in guardErr for State to surface.
		werr := err
		inst.guardErr.Store(&werr)
	}
	m.noteFailure(inst)
	return false, err
}

// observeAndTestLocked is observeAndTest under the instance lock with
// panic isolation: the trigger predicate runs arbitrary expressions, and
// a panic there must not unwind through the caller's manager lock.
func (m *Manager) observeAndTestLocked(inst *instance, now vclock.Timestamp, cache *storage.WindowCache) (bool, error) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	var should bool
	err := guard.Protect(func() error {
		var terr error
		should, terr = m.observeAndTest(inst, now, cache)
		return terr
	})
	if err != nil {
		inst.lastErr = err
	}
	return should, err
}

// noteFailure records one refresh (or trigger) failure against the CQ's
// breaker, logging the transition if this trip opens the quarantine.
func (m *Manager) noteFailure(inst *instance) {
	if inst.breaker.Failure() {
		if mm := m.met; mm != nil {
			mm.quarantines.Inc()
		}
		if m.cfg.Logf != nil {
			m.cfg.Logf("cq %q: quarantined after %d consecutive failures (backoff until probe)",
				inst.def.Name, inst.breaker.Failures())
		}
	}
	if mm := m.met; mm != nil {
		mm.refreshErrors.Inc()
	}
}

// noteLate records the eventual outcome of a refresh that outlived its
// budget: the work completed (or failed) after the dispatcher gave up.
func (m *Manager) noteLate(inst *instance, late error) {
	mm := m.met
	if mm == nil {
		return
	}
	mm.refreshLate.Inc()
	var pe *guard.PanicError
	if errors.As(late, &pe) {
		mm.refreshPanics.Inc()
	}
	_ = inst
}

// workerCount resolves Config.Parallelism against the round size.
func (m *Manager) workerCount(tasks int) int {
	w := m.cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Refresh forces re-evaluation of one CQ regardless of its trigger.
func (m *Manager) Refresh(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	inst, ok := m.cqs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	if inst.terminated.Load() {
		return fmt.Errorf("%w: %q", ErrTerminated, name)
	}
	// Counter snapshot before the timestamp, as in Poll.
	var versions map[string]uint64
	if m.cfg.UseDRA {
		versions = m.store.ChangeCounts()
	}
	now := m.store.Now()
	cache := m.store.NewWindowCache()
	// A manual refresh is an operator probe: it bypasses the quarantine
	// gate (no Allow check — the operator decided to try), runs with
	// panic isolation but no budget (it holds the manager lock, so a
	// deadline could not safely abandon it), and its outcome feeds the
	// breaker: a successful manual refresh heals the CQ immediately.
	err := guard.Protect(func() error {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		// Bring trigger accounting up to date so it resets consistently.
		if _, terr := m.observeAndTest(inst, now, cache); terr != nil {
			inst.lastErr = terr
			return terr
		}
		if rerr := m.refreshInstance(inst, now, cache, versions, nil); rerr != nil {
			inst.lastErr = rerr
			return rerr
		}
		inst.lastErr = nil
		inst.guardErr.Store(nil)
		return nil
	})
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			if mm := m.met; mm != nil {
				mm.refreshPanics.Inc()
			}
			err = fmt.Errorf("cq %q: %w", name, err)
			inst.mu.Lock()
			inst.lastErr = err
			inst.mu.Unlock()
		}
		m.noteFailure(inst)
		return err
	}
	inst.breaker.Success()
	m.updateRegisteredLocked()
	return nil
}

// pushDispatch is the push router's callback: one CQ's share of a Poll
// round, run the moment a commit touches its operands. It follows the
// Poll discipline exactly — change-counter snapshot before the round
// timestamp, trigger evaluation under the instance lock, refresh
// guarded by the roundTS <= lastExec monotonicity check — so a push
// refresh and a racing Poll (or another dispatcher) of the same CQ
// resolve to exactly one execution per timestamp, keeping Seq gap-free
// and the notification sequence identical to what polling would have
// produced.
func (m *Manager) pushDispatch(name string) (refreshed, retire bool, err error) {
	if fp, isTmpl := parseTmplRoute(name); isTmpl {
		return m.pushDispatchTemplate(fp)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false, true, nil
	}
	inst, ok := m.cqs[name]
	if !ok || inst.terminated.Load() || inst.dropped.Load() {
		m.mu.Unlock()
		return false, true, nil
	}
	// Quarantine gate, as in Poll. The router's registration gate
	// (Blocked) already filters most routings without dispatching;
	// Allow here closes the race and claims the probe slot.
	if !inst.breaker.Allow() {
		m.mu.Unlock()
		if mm := m.met; mm != nil {
			mm.quarantineSkips.Inc()
		}
		return false, false, nil
	}
	var versions map[string]uint64
	if m.cfg.UseDRA {
		versions = m.store.ChangeCounts()
	}
	roundTS := m.store.Now()
	cache := m.store.NewWindowCache()
	should, terr := m.observeAndTestLocked(inst, roundTS, cache)
	if terr != nil {
		m.mu.Unlock()
		m.noteFailure(inst)
		return false, false, fmt.Errorf("cq %q: %w", name, terr)
	}
	m.mu.Unlock()
	if mm := m.met; mm != nil {
		mm.triggerEvals.Inc()
		if should {
			mm.fireCounter(inst.trigger.Kind).Inc()
		}
	}
	if !should {
		inst.breaker.Release()
		return false, false, nil
	}

	// The routed commit images become the refresh's columnar inputs when
	// they provably cover the window — the zero-conversion path.
	var pushed map[string][]push.BatchRef
	if m.cfg.Engine.Vectorized {
		m.mu.Lock()
		if r := m.router; r != nil {
			pushed = r.TakeBatches(name, roundTS)
		}
		m.mu.Unlock()
	}
	refreshed, rerr := m.guardedRefresh(inst, roundTS, cache, versions, pushed)
	if rerr != nil {
		return false, false, rerr
	}
	terminated := inst.terminated.Load()
	if refreshed && terminated {
		m.mu.Lock()
		m.updateRegisteredLocked()
		m.mu.Unlock()
	}
	// Amortized GC: the poll loop still collects every round; the push
	// path chips in periodically so a pure-push deployment (no poll
	// loop at all) keeps its delta windows bounded too.
	if refreshed && m.cfg.AutoGC && m.pushGCTicks.Add(1)%pushGCEvery == 0 {
		m.mu.Lock()
		if !m.closed {
			m.gcLocked()
		}
		m.mu.Unlock()
	}
	return refreshed, terminated, nil
}

// FlushPush blocks until every queued push dispatch has completed — the
// quiescence barrier for graceful drains (cqd shutdown, durable
// checkpoint-on-close) and for tests comparing push against poll. A
// no-op when push is disabled. Callers must not hold manager locks and
// should stop committing first.
func (m *Manager) FlushPush() {
	m.mu.Lock()
	r := m.router
	m.mu.Unlock()
	if r != nil {
		r.Flush()
	}
}

// PushPending reports the number of CQs queued or mid-dispatch in the
// push router (0 when push is disabled).
func (m *Manager) PushPending() int {
	m.mu.Lock()
	r := m.router
	m.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.Pending()
}

// observeAndTest folds the unobserved update window into the CQ's trigger
// state and evaluates the trigger condition — differentially: only delta
// rows are read (Section 5.3). Caller holds inst.mu. Trigger accounting
// reads the raw (uncompacted) windows: updates-count and absolute
// epsilon triggers must see every row, not the net effect.
func (m *Manager) observeAndTest(inst *instance, now vclock.Timestamp, cache *storage.WindowCache) (bool, error) {
	if now > inst.lastObs {
		for _, table := range inst.tables {
			w, err := cache.Window(table, inst.lastObs, now, false)
			if err != nil {
				return false, err
			}
			inst.updatesSeen += int64(w.Len())
			if acct, ok := inst.eps[table]; ok {
				if err := acct.Observe(w); err != nil {
					return false, err
				}
			}
		}
		inst.lastObs = now
	}

	switch inst.trigger.Kind {
	case sql.TriggerEvery:
		return now >= inst.lastExec+vclock.Timestamp(inst.trigger.Every), nil
	case sql.TriggerUpdates:
		return inst.updatesSeen >= inst.trigger.Updates, nil
	case sql.TriggerEpsilon:
		for _, acct := range inst.eps {
			if acct.Exceeded() {
				return true, nil
			}
		}
		return false, nil
	default:
		return inst.updatesSeen > 0, nil
	}
}

// refreshInstance re-evaluates the CQ at execTS and delivers the
// notification, drawing differential windows from the round's shared
// cache. Caller holds inst.mu (and only inst.mu on the Poll worker
// path; the store and the DRA engine are safe for concurrent use).
func (m *Manager) refreshInstance(inst *instance, execTS vclock.Timestamp, cache *storage.WindowCache, versions map[string]uint64, pushed map[string][]push.BatchRef) error {
	var span *obs.Span
	var start time.Time
	if mm := m.met; mm != nil {
		start = time.Now()
		span = mm.traces.Start("cq.refresh:" + inst.def.Name)
	}
	var res *dra.Result
	var err error
	switch {
	case m.cfg.UseDRA && inst.group != nil && !inst.pendingSync:
		// Shared template: no private windows, no private evaluation —
		// step the group once and fold this member's dispatched rows.
		res, err = m.refreshShared(inst, execTS, cache, versions)
	case m.cfg.UseDRA:
		compact := m.cfg.Engine.CompactDeltas
		ctx := &dra.Context{
			Pre:       m.store.At(inst.lastExec),
			Post:      m.store.Live(),
			Deltas:    make(map[string]*delta.Delta, len(inst.tables)),
			LastTS:    inst.lastExec,
			Prev:      inst.prev,
			Compacted: compact,
			Versions:  versions,
		}
		for _, table := range inst.tables {
			w, derr := cache.Window(table, inst.lastExec, execTS, compact)
			if derr != nil {
				return fmt.Errorf("cq %q: %w", inst.def.Name, derr)
			}
			ctx.Deltas[table] = w
		}
		if m.cfg.Engine.Vectorized {
			m.fillBatches(ctx, inst.tables, inst.lastExec, execTS, cache, compact, pushed)
		}
		switch {
		case inst.maint != nil:
			res, err = inst.maint.Step(ctx, execTS)
		case inst.prepared != nil:
			res, err = inst.prepared.Step(ctx, execTS)
		default:
			// Private plans without a prepared pipeline, and grouped
			// members in pendingSync: one full-window differential
			// catch-up over the member's own plan.
			res, err = m.cfg.Engine.Reevaluate(inst.plan, ctx, execTS)
		}
	default:
		res, err = dra.FullReevaluate(inst.plan, m.store.Live(), inst.prev, execTS)
	}
	if err != nil {
		return fmt.Errorf("cq %q: %w", inst.def.Name, err)
	}

	// Materialize BEFORE journaling the execution: the WAL must never
	// hold an execution record whose derived delta did not commit, or
	// replay would resurrect a result sequence the downstream tables
	// never saw. The inverse crash window — delta committed, execution
	// not journaled — is harmless because the apply is reconciling
	// (materialize.go): recovery resumes one sequence back, re-derives
	// the change, and the already-applied part stages as a no-op.
	if inst.into != "" {
		if merr := m.materializeLocked(inst, res); merr != nil {
			return fmt.Errorf("cq %q: materialize into %q: %w", inst.def.Name, inst.into, merr)
		}
	}

	// Journal the execution BEFORE any state mutates or a notification
	// goes out: a journal failure fails the refresh with the instance
	// unchanged (the trigger re-fires next round), so a delivered
	// notification is always durable — at-most-once delivery across
	// crashes. Subscribers that need the gap re-fetch Result() after a
	// restart.
	newSeq := inst.seq + 1
	willTerm := inst.stop.AfterN > 0 && int64(newSeq) >= inst.stop.AfterN
	if m.cfg.Journal != nil {
		if jerr := m.cfg.Journal.CQExecuted(inst.def.Name, newSeq, execTS, res.Delta, willTerm); jerr != nil {
			return fmt.Errorf("cq %q: journal execution: %w", inst.def.Name, jerr)
		}
	}

	inst.prev = res.ApplyTo(inst.prev)
	inst.lastExec = execTS
	inst.lastObs = execTS
	inst.seq = newSeq
	inst.updatesSeen = 0
	for _, acct := range inst.eps {
		acct.Reset()
	}

	if willTerm {
		inst.terminated.Store(true)
	}
	if inst.group != nil {
		// The refresh is journaled and applied: discard the covered
		// template batches (a failure above kept them for the retry),
		// finish a pendingSync member's rejoin, and take a terminated
		// member out of the dispatch index.
		m.afterRefreshLocked(inst, execTS, willTerm)
	}

	if mm := m.met; mm != nil {
		mm.refreshes.Inc()
		mm.refreshNS.Observe(time.Since(start))
		if inst.terminated.Load() {
			mm.terminated.Inc()
		}
		span.SetField("seq", int64(inst.seq))
		span.SetField("exec_ts", int64(execTS))
		span.SetField("result_rows", int64(inst.prev.Len()))
		if res.Delta != nil {
			ins, del, mod := res.Delta.Counts()
			span.SetField("inserted", int64(ins))
			span.SetField("deleted", int64(del))
			span.SetField("modified", int64(mod))
		}
		span.Finish()
	}

	note := m.buildNotification(inst, res)
	if note.Empty() && !inst.def.NotifyEmpty && !note.Terminated {
		return nil
	}
	m.deliver(inst, note)
	return nil
}

// fillBatches populates ctx.Batches with one columnar image per operand
// window. Per table it prefers the commit images the push router routed
// (zero conversion: the store built them once at commit and every
// subscribed CQ shares them by reference), accepting them only when a
// signed-row count proves they cover the window exactly; otherwise it
// falls back to the round's shared WindowBatch conversion. A table left
// out of ctx.Batches keeps the engine on its own conversion (or row)
// path — never incorrect, just slower.
func (m *Manager) fillBatches(ctx *dra.Context, tables []string, from, to vclock.Timestamp, cache *storage.WindowCache, compact bool, pushed map[string][]push.BatchRef) {
	ctx.Batches = make(map[string]*batch.Batch, len(tables))
	for _, table := range tables {
		w := ctx.Deltas[table]
		if w == nil || w.Len() == 0 {
			continue
		}
		if b := acceptPushed(pushed[table], table, w, from, to, cache, compact); b != nil {
			ctx.Batches[table] = b
			if mm := m.met; mm != nil {
				mm.batchesPushed.Inc()
			}
			continue
		}
		if b, err := cache.WindowBatch(table, from, to, compact); err == nil && b != nil {
			ctx.Batches[table] = b
			if mm := m.met; mm != nil {
				mm.batchesWindow.Inc()
			}
		}
	}
}

// acceptPushed decides whether a run of routed commit images can stand
// in for the window's columnar form, and assembles it if so. Soundness
// rests on counting: each ref is one commit's complete signed rows and
// the refs are distinct commits inside (from, to], so their signed-row
// total equals the raw window's exactly when the run covers every
// commit. Under compaction one more equality is needed — the raw
// window's signed length must match the folded window's, which (since
// folding can only shrink a tid's signed rows, and an equal-size fold
// is value-identical) proves compaction changed nothing the engine can
// observe.
func acceptPushed(refs []push.BatchRef, table string, win *delta.Delta, from, to vclock.Timestamp, cache *storage.WindowCache, compact bool) *batch.Batch {
	// Refs at or before `from` belong to commits an earlier refresh
	// (typically a poll round, which does not consume refs) already
	// covered.
	for len(refs) > 0 && refs[0].TS <= from {
		refs = refs[1:]
	}
	if len(refs) == 0 {
		return nil
	}
	total := 0
	for _, r := range refs {
		if r.TS > to {
			return nil // cannot happen: TakeBatches cuts at the round TS
		}
		total += r.Batch.Len()
	}
	if compact {
		raw, err := cache.Window(table, from, to, false)
		if err != nil {
			return nil
		}
		rawLen := signedLen(raw)
		if total != rawLen || rawLen != signedLen(win) {
			return nil
		}
	} else if total != signedLen(win) {
		return nil
	}
	if len(refs) == 1 {
		return refs[0].Batch
	}
	out := batch.New(win.Schema(), total)
	for _, r := range refs {
		for i := 0; i < r.Batch.Len(); i++ {
			out.AppendFrom(r.Batch, i)
		}
	}
	return out
}

// signedLen is the number of signed (±) rows a differential window
// expands to in columnar form: a modification carries two, an insertion
// or deletion one.
func signedLen(d *delta.Delta) int {
	n := 0
	for _, r := range d.Rows() {
		if r.Kind() == delta.Modify {
			n += 2
		} else {
			n++
		}
	}
	return n
}

// buildNotification assembles the per-mode answer (Section 4.3 step 4).
func (m *Manager) buildNotification(inst *instance, res *dra.Result) Notification {
	note := Notification{
		CQName:     inst.def.Name,
		Seq:        inst.seq,
		ExecTS:     res.ExecTS,
		Mode:       inst.mode,
		Terminated: inst.terminated.Load(),
	}
	switch inst.mode {
	case sql.ModeComplete:
		note.Complete = inst.prev.Clone()
		note.Inserted = res.Inserted()
		note.Deleted = res.Deleted()
		note.Modified = res.Modified()
	case sql.ModeDeletions:
		note.Deleted = res.Deleted()
	default: // ModeDifferential
		note.Inserted = res.Inserted()
		note.Deleted = res.Deleted()
		note.Modified = res.Modified()
	}
	return note
}

// deliver fans the notification out to the CQ's subscribers under the
// instance lock. Channel sends never block: a full buffer invokes the
// subscriber's backpressure policy. Callback subscribers are
// panic-isolated — a panicking callback is disconnected, not retried,
// and never unwinds into the refresh.
func (m *Manager) deliver(inst *instance, note Notification) {
	delivered, dropped, disconnected := 0, 0, 0
	removed := false
	for _, s := range inst.subs {
		if s.fn != nil {
			fn := s.fn
			if perr := guard.Protect(func() error {
				fn(note, false)
				return nil
			}); perr != nil {
				s.disconnected = true
				removed = true
				disconnected++
				if mm := m.met; mm != nil {
					mm.subscriberPanics.Inc()
				}
				m.logf("cq %q: subscriber callback panicked, disconnected: %v", inst.def.Name, perr)
				continue
			}
			delivered++
			s.lastSeq, s.lastTS = note.Seq, note.ExecTS
			continue
		}
		send := note
		send.Dropped = s.droppedSince
		select {
		case s.ch <- send:
			delivered++
			s.droppedSince = 0
			s.lastSeq, s.lastTS = note.Seq, note.ExecTS
			continue
		default:
		}
		// Buffer full: apply the policy.
		switch s.policy {
		case DropOldest:
			// Evict the oldest queued notification to make room; the
			// consumer learns the gap from Dropped on this one. The
			// evictee's own Dropped folds in, so the count survives
			// chained evictions. deliver is the only sender (inst.mu),
			// so the retry cannot race a refill — only a concurrent
			// receive, which also makes room (and means nothing was
			// dropped after all).
			select {
			case old := <-s.ch:
				s.dropped++
				dropped++
				send.Dropped = s.droppedSince + old.Dropped + 1
			default:
			}
			select {
			case s.ch <- send:
				delivered++
				s.droppedSince = 0
				s.lastSeq, s.lastTS = note.Seq, note.ExecTS
			default:
				s.dropped++
				dropped++
				s.droppedSince = send.Dropped + 1
			}
		case Disconnect:
			// The consumer is too slow to keep a live feed: close the
			// channel (the consumer sees EOF plus its resume token) and
			// detach. Resubscribe catches up differentially.
			s.dropped++
			dropped++
			s.disconnected = true
			close(s.ch)
			removed = true
			disconnected++
		default: // DropNewest
			s.dropped++
			s.droppedSince++
			dropped++
		}
	}
	if removed {
		keep := inst.subs[:0]
		for _, s := range inst.subs {
			if !s.disconnected {
				keep = append(keep, s)
			}
		}
		inst.subs = keep
	}
	inst.notifDropped += int64(dropped)
	if mm := m.met; mm != nil {
		mm.notifications.Add(int64(delivered))
		mm.drops.Add(int64(dropped))
		mm.notifDropped.Add(int64(dropped))
		mm.disconnects.Add(int64(disconnected))
		depth := 0
		for _, s := range inst.subs {
			depth += len(s.ch)
		}
		mm.queueDepth.Set(int64(depth))
	}
}

// SubscribeFunc attaches a callback invoked synchronously while the
// refresh is delivered: when Poll returns, every fired notification has
// been handed to the callback. The callback runs under the CQ's
// instance lock on a refresh worker goroutine — callbacks of different
// CQs may run concurrently, one CQ's callbacks never do — and must not
// call back into the Manager or cancel a subscription. On Drop or Close
// it is invoked once more with closed = true.
func (m *Manager) SubscribeFunc(name string, f func(n Notification, closed bool)) (func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	sub := &subscriber{fn: f}
	inst.mu.Lock()
	inst.subs = append(inst.subs, sub)
	inst.mu.Unlock()
	cancel := func() {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		for i, s := range inst.subs {
			if s == sub {
				inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
				break
			}
		}
	}
	return cancel, nil
}

// gcLocked collects differential-relation garbage below the system
// active delta zone (Section 5.4), refined per table: each table's
// horizon is the minimum last-execution timestamp over the live CQs
// reading it. Caller holds m.mu but no instance locks: each
// instance's lastExec is read under its own lock, so a refresh worker
// of a racing round can never be observed mid-update.
func (m *Manager) gcLocked() {
	if len(m.cqs) == 0 {
		return
	}
	// Horizons are per table: each table is collectable up to the
	// minimum lastExec of the CQs that actually read it, with the global
	// minimum as the fallback for unread tables. The distinction is what
	// keeps cascades affordable — a derived table's window must survive
	// until its slowest downstream reader catches up, but that reader
	// pins only its own operands, not the base tables of every other
	// stage.
	var global vclock.Timestamp
	first := true
	perTable := make(map[string]vclock.Timestamp)
	for _, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		// TryLock, not Lock: an abandoned over-budget refresh may hold
		// this instance's lock indefinitely, and the GC horizon needs
		// its lastExec. Blocking here would re-serialize the round on
		// the very CQ the budget abandoned, so skip GC until the next
		// tick instead (retention is bounded by the watermarks).
		if !inst.mu.TryLock() {
			return
		}
		lastExec := inst.lastExec
		inst.mu.Unlock()
		if first || lastExec < global {
			global = lastExec
			first = false
		}
		for _, t := range inst.tables {
			if h, ok := perTable[t]; !ok || lastExec < h {
				perTable[t] = lastExec
			}
		}
	}
	if first {
		// All terminated: everything is collectable.
		reclaimed := m.store.CollectGarbage(m.store.Now())
		if mm := m.met; mm != nil {
			mm.gcReclaimed.Add(int64(reclaimed))
		}
		return
	}
	horizons := make(map[string]vclock.Timestamp)
	for _, t := range m.store.TableNames() {
		if h, ok := perTable[t]; ok {
			horizons[t] = h
		} else {
			horizons[t] = global
		}
	}
	reclaimed := m.store.CollectGarbageTables(horizons)
	if mm := m.met; mm != nil {
		mm.gcReclaimed.Add(int64(reclaimed))
	}
}

// CollectGarbage exposes the GC step for callers managing their own poll
// loop. Returns the number of delta rows collected; a closed manager
// collects nothing.
func (m *Manager) CollectGarbage() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || len(m.cqs) == 0 {
		return 0
	}
	before := 0
	for _, t := range m.store.TableNames() {
		n, _ := m.store.DeltaLen(t)
		before += n
	}
	m.gcLocked()
	after := 0
	for _, t := range m.store.TableNames() {
		n, _ := m.store.DeltaLen(t)
		after += n
	}
	return before - after
}

// Start launches the asynchronous evaluation loop: Poll every interval.
// Stop it with Close. Section 5.3: "the CQ manager can decide when to
// evaluate Tcq by a system-defined default interval".
func (m *Manager) Start(interval time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.loopStop != nil {
		return errors.New("cq: loop already running")
	}
	m.loopStop = make(chan struct{})
	m.loopDone = make(chan struct{})
	// guarded: loop panic-isolates each Poll and must keep ticking.
	go m.loop(interval, m.loopStop, m.loopDone)
	return nil
}

func (m *Manager) loop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Errors inside the background loop surface through State and
			// notifications; a failed poll leaves trigger state intact and
			// is retried next tick. Panic isolation keeps the loop alive:
			// per-CQ panics are already absorbed by guardedRefresh, so
			// this recovers only manager-level faults.
			if perr := guard.Protect(func() error {
				_, _ = m.Poll()
				return nil
			}); perr != nil {
				m.logf("cq: poll loop recovered: %v", perr)
			}
		case <-stop:
			return
		}
	}
}

// Close stops the background loop (if running), drains the push router
// (pending dispatches refresh against the still-open manager, so no
// committed delta is left unevaluated), and closes all subscriber
// channels.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	stop, done := m.loopStop, m.loopDone
	m.loopStop, m.loopDone = nil, nil
	router := m.router
	m.router = nil
	m.mu.Unlock()
	// Detach the pressure hook: an overload trip after close must not
	// call back into a dead manager.
	m.store.SetPressureHook(nil)
	if stop != nil {
		close(stop)
		<-done
	}
	if router != nil {
		// Detach the commit hook first: a commit racing with shutdown
		// must not publish into a closing router. Its delta stays in
		// the store; nothing here evaluates it, which matches the
		// poll-loop shutdown semantics.
		m.store.SetCommitHook(nil)
		router.Close()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, inst := range m.cqs {
		inst.mu.Lock()
		closeSubs(inst)
		if inst.prepared != nil {
			inst.prepared.Close()
			inst.prepared = nil
		}
		inst.mu.Unlock()
	}
	for fp, g := range m.templates {
		g.mu.Lock()
		g.prepared.Close()
		g.mu.Unlock()
		delete(m.templates, fp)
	}
	return nil
}

// onPressure is the store's overload observer (Config wiring in
// NewManagerConfig): a soft or hard watermark trip runs emergency GC,
// reclaiming every delta row below the system active delta zone so the
// store can clear the watermark without waiting for the next poll tick.
// Runs on the store's hook goroutine, panic-isolated.
func (m *Manager) onPressure(level storage.OverloadLevel) {
	if level < storage.OverloadSoft {
		return
	}
	_ = guard.Protect(func() error {
		if mm := m.met; mm != nil {
			mm.emergencyGC.Inc()
		}
		reclaimed := m.CollectGarbage()
		m.logf("cq: overload %v: emergency GC reclaimed %d delta rows", level, reclaimed)
		return nil
	})
}

// newMaintainer tries the incremental state keepers in turn; a nil, nil
// return means the plan is plain SPJ (or otherwise unsupported) and the
// caller should prepare it instead (Manager.prepare).
func newMaintainer(cfg Config, plan algebra.Plan, src algebra.Source) (maintainer, error) {
	engine := cfg.Engine
	if ia, err := dra.NewIncrementalAggregate(engine, plan, src); err == nil {
		return ia, nil
	} else if !errors.Is(err, dra.ErrNotIncremental) {
		return nil, err
	}
	if id, err := dra.NewIncrementalDistinct(engine, plan, src); err == nil {
		return id, nil
	} else if !errors.Is(err, dra.ErrNotIncremental) {
		return nil, err
	}
	return nil, nil
}

// prepare builds the compile-once refresh pipeline for an SPJ (or
// propagate-only) plan with Config.Strategy. A forced strategy the plan
// cannot run is not an error for the registration: it falls back to the
// cost model — but audibly, through Logf and the cq.maintainer.fallbacks
// counter, never silently.
func (m *Manager) prepare(name string, plan algebra.Plan) (*dra.Prepared, error) {
	strat := m.cfg.Strategy
	prep, err := m.cfg.Engine.Prepare(plan, strat)
	if err != nil && strat != dra.StrategyAuto {
		m.logf("cq %q: %v strategy unavailable (%v); falling back to auto", name, strat, err)
		if mm := m.met; mm != nil {
			mm.maintFallbacks.Inc()
		}
		prep, err = m.cfg.Engine.Prepare(plan, dra.StrategyAuto)
	}
	if err != nil {
		return nil, err
	}
	return prep, nil
}

// logf writes one diagnostic line through Config.Logf, defaulting to
// the standard library logger.
func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}
