package cq

import (
	"fmt"
	"sort"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Journal receives registry mutations and delivered executions in
// write-ahead order: the manager calls each hook BEFORE the matching
// in-memory change or notification, and a hook error aborts the
// operation with the manager unchanged. This is what makes delivered
// notifications at-most-once across crashes — an execution the journal
// never saw was also never delivered, so after recovery its trigger
// simply re-fires and the refresh re-runs differentially.
type Journal interface {
	// CQRegistered records a new CQ (entry carries the initial result).
	CQRegistered(e wal.CQEntry) error
	// CQExecuted records one delivered refresh; change is the result
	// delta of the execution (may be nil or empty).
	CQExecuted(name string, seq int, ts vclock.Timestamp, change *delta.Delta, terminated bool) error
	// CQDropped records removal.
	CQDropped(name string) error
}

// entryLocked renders one instance to its durable form. Caller holds
// inst.mu.
func (m *Manager) entryLocked(inst *instance) wal.CQEntry {
	e := wal.CQEntry{
		Name:           inst.def.Name,
		Query:          inst.queryText,
		TriggerKind:    int(inst.trigger.Kind),
		TriggerEvery:   inst.trigger.Every,
		TriggerBound:   inst.trigger.Bound,
		TriggerUpdates: inst.trigger.Updates,
		Mode:           int(inst.mode),
		StopAfterN:     inst.stop.AfterN,
		EpsilonMeasure: int(inst.def.EpsilonMeasure),
		NotifyEmpty:    inst.def.NotifyEmpty,
		Seq:            inst.seq,
		LastExec:       inst.lastExec,
		Terminated:     inst.terminated.Load(),
		Health:         inst.breaker.State().String(),
	}
	if inst.trigger.On != nil {
		e.TriggerOn = inst.trigger.On.String()
	}
	if inst.prepared != nil {
		e.Strategy = inst.prepared.Strategy().String()
	}
	if g := inst.group; g != nil {
		g.mu.Lock()
		e.Strategy = g.prepared.Strategy().String()
		g.mu.Unlock()
	}
	if inst.prev != nil {
		e.Result = inst.prev.Clone()
	}
	return e
}

// SnapshotRegistry captures every registered CQ's durable entry at one
// consistent point: it locks the manager and every instance (in sorted
// name order, so concurrent snapshots cannot deadlock), runs cut while
// everything is pinned — the caller snapshots the store and rotates the
// WAL there — and renders the entries. The combination gives the
// checkpoint a cut where store state, CQ bookkeeping and log position
// all agree.
func (m *Manager) SnapshotRegistry(cut func() error) ([]wal.CQEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	names := make([]string, 0, len(m.cqs))
	for n := range m.cqs {
		names = append(names, n)
	}
	sort.Strings(names)
	locked := make([]*instance, 0, len(names))
	defer func() {
		for _, inst := range locked {
			inst.mu.Unlock()
		}
	}()
	for _, n := range names {
		inst := m.cqs[n]
		inst.mu.Lock()
		locked = append(locked, inst)
	}
	if cut != nil {
		if err := cut(); err != nil {
			return nil, err
		}
	}
	entries := make([]wal.CQEntry, 0, len(locked))
	for _, inst := range locked {
		entries = append(entries, m.entryLocked(inst))
	}
	return entries, nil
}

// Resume reinstalls a recovered CQ without journaling and without a
// fresh initial execution: the entry's Seq/LastExec/Result carry on the
// result sequence exactly where the previous incarnation stopped, and
// the trigger starts observing at LastExec — so the first Poll after
// recovery computes a differential catch-up over the replayed delta
// window, the DRA applied to the crash itself.
func (m *Manager) Resume(e wal.CQEntry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, dup := m.cqs[e.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateCQ, e.Name)
	}
	stmt, err := sql.ParseSelect(e.Query)
	if err != nil {
		return fmt.Errorf("cq %q: recovered query: %w", e.Name, err)
	}
	def := Def{
		Name:  e.Name,
		Query: e.Query,
		Trigger: sql.TriggerSpec{
			Kind:    sql.TriggerKind(e.TriggerKind),
			Every:   e.TriggerEvery,
			Bound:   e.TriggerBound,
			Updates: e.TriggerUpdates,
		},
		Mode:           sql.ResultMode(e.Mode),
		Stop:           sql.StopSpec{AfterN: e.StopAfterN},
		EpsilonMeasure: epsilon.Measure(e.EpsilonMeasure),
		NotifyEmpty:    e.NotifyEmpty,
	}
	if e.TriggerOn != "" {
		on, err := sql.ParseExpr(e.TriggerOn)
		if err != nil {
			return fmt.Errorf("cq %q: recovered trigger expression: %w", e.Name, err)
		}
		def.Trigger.On = on
	}

	plan, err := algebra.PlanSelect(stmt, m.store.Live())
	if err != nil {
		return fmt.Errorf("cq %q: recovered plan: %w", e.Name, err)
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
	// A CQ that was quarantined (or probing) when the checkpoint cut
	// resumes in probation, not healthy: recovery clears transient
	// state, so one immediate probe is allowed, but its failure streak
	// is not forgotten — a persistently failing CQ does not get a free
	// quarantine escape via restart.
	if guard.ParseHealth(e.Health) != guard.Healthy {
		inst.breaker.SeedProbation()
	}
	for _, scan := range algebra.Tables(plan) {
		inst.tables = append(inst.tables, scan.Table)
	}
	// Rebuild the cascade DAG edges. Checkpoint recovery resumes entries
	// in snapshot order, which need not be registration order — a reader
	// can rejoin the DAG before its upstream's producer does. That is
	// fine: the registry recomputes every node's stage retroactively
	// when a producer registers, so the staged poll converges to the
	// pre-crash topology no matter the resume order.
	if _, err := m.dag.Register(e.Name, inst.tables, stmt.Into); err != nil {
		return fmt.Errorf("cq %q: recovered cascade edges: %w", e.Name, err)
	}
	inst.into = stmt.Into
	installed := false
	defer func() {
		if !installed {
			m.dag.Unregister(e.Name)
		}
	}()
	if stmt.Into != "" {
		// The WAL replay normally recreated the target; a lost table
		// (defensive path) is recreated empty and reseeded by the
		// reconcile below. Either way the crash may sit between the last
		// materialize commit and its execution record, so the first
		// refresh reconciles the whole target instead of trusting its
		// delta (materialize.go).
		if _, serr := m.store.Schema(stmt.Into); serr != nil {
			if cerr := m.store.CreateTable(stmt.Into, plan.Schema()); cerr != nil {
				return fmt.Errorf("cq %q: recreate target %q: %w", e.Name, stmt.Into, cerr)
			}
		}
		inst.needsReconcile = true
	}
	if def.Trigger.Kind == sql.TriggerEpsilon {
		// Accountants restart empty: their divergence re-accumulates
		// differentially from the replayed window as lastObs advances.
		if err := m.setupEpsilon(inst, stmt); err != nil {
			return fmt.Errorf("cq %q: recovered epsilon trigger: %w", e.Name, err)
		}
	}
	inst.terminated.Store(e.Terminated)

	if m.cfg.UseDRA && !e.Terminated {
		// State keepers reseed AT THE LAST EXECUTION, not at the live
		// head: the next refresh must see the post-crash window as its
		// delta, or replayed-but-unprocessed commits would be skipped.
		// At(LastExec) is always reconstructible for a live CQ because
		// the GC horizon never passes the minimum live lastExec.
		maint, err := newMaintainer(m.cfg, plan, m.store.At(e.LastExec))
		if err != nil {
			return fmt.Errorf("cq %q: reseed maintainer: %w", e.Name, err)
		}
		if maint != nil {
			inst.maint = maint
			if e.Result == nil {
				e.Result = maint.Result().Clone()
			}
		} else {
			// Template sharing round-trips recovery: a shareable member
			// rejoins (or recreates) its group and is flagged
			// pendingSync — its first refresh is a private differential
			// catch-up from LastExec, after which it consumes the
			// template stream like any other member. Materializing CQs
			// never share (as at registration).
			var joined bool
			if stmt.Into == "" {
				var jerr error
				_, joined, jerr = m.joinTemplateLocked(inst, true)
				if jerr != nil {
					return fmt.Errorf("cq %q: rejoin template: %w", e.Name, jerr)
				}
			}
			if !joined {
				// Re-prepare exactly as registration does, with
				// Config.Strategy. The journaled e.Strategy is the
				// concrete pick at checkpoint time; forcing it would
				// pin an Auto CQ to that pick for good.
				prep, err := m.prepare(e.Name, plan)
				if err != nil {
					return fmt.Errorf("cq %q: re-prepare: %w", e.Name, err)
				}
				inst.prepared = prep
			}
		}
	}

	switch {
	case e.Result != nil:
		inst.prev = e.Result.Clone()
	case !e.Terminated:
		// No materialized result survived (a fold error during recovery
		// dropped it): reseed by evaluation at the last execution.
		res, err := dra.InitialResult(plan, m.store.At(e.LastExec))
		if err != nil {
			return fmt.Errorf("cq %q: reseed result: %w", e.Name, err)
		}
		inst.prev = res
	default:
		// Terminated and no result: the sequence is over; an empty
		// relation keeps State/Result well defined.
		inst.prev = relation.New(plan.Schema())
	}

	inst.seq = e.Seq
	inst.lastExec = e.LastExec
	inst.lastObs = e.LastExec
	m.cqs[e.Name] = inst
	m.routePushLocked(inst)
	m.registeredDeltaLocked(inst, +1)
	installed = true
	return nil
}
