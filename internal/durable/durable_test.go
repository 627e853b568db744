package durable_test

import (
	"testing"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "v", Type: relation.TInt},
	)
}

func openSys(t *testing.T, fs wal.FS, every int) *durable.System {
	t.Helper()
	sys, err := durable.Open(durable.Options{
		Dir:             "data",
		FS:              fs,
		Fsync:           wal.FsyncAlways,
		CheckpointEvery: every,
		CQ:              cq.Config{UseDRA: true, AutoGC: true},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return sys
}

func insertRow(t *testing.T, s *storage.Store, name string, v int64) {
	t.Helper()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Int(v)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

const watchQuery = `CREATE CONTINUAL QUERY watch AS
	SELECT name, v FROM stocks WHERE v >= 50
	TRIGGER UPDATES 1
	MODE COMPLETE`

func TestLifecycleAcrossRestart(t *testing.T) {
	fs := faults.NewMemFS(1)
	sys := openSys(t, fs, 0)
	if sys.Recovery.HasState() {
		t.Fatalf("fresh directory reported state: %+v", sys.Recovery)
	}
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 150)
	insertRow(t, sys.Store, "IBM", 40)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "HP", 99)
	if _, err := sys.Manager.Poll(); err != nil {
		t.Fatal(err)
	}
	wantRes, err := sys.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := sys.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	wantContents, _ := sys.Store.Snapshot("stocks")
	wantCounts := sys.Store.ChangeCounts()
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	// Close checkpointed, so recovery loads it and replays nothing.
	if !sys2.Recovery.FromCheckpoint || sys2.Recovery.Records != 0 || sys2.Recovery.CQs != 1 {
		t.Fatalf("recovery: %+v", sys2.Recovery)
	}
	got, err := sys2.Store.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualContents(wantContents) {
		t.Fatal("table contents differ after restart")
	}
	if counts := sys2.Store.ChangeCounts(); counts["stocks"] != wantCounts["stocks"] {
		t.Fatalf("change counts: %v vs %v", counts, wantCounts)
	}
	gotRes, err := sys2.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if !gotRes.EqualContents(wantRes) {
		t.Fatal("cq result differs after restart")
	}
	st, err := sys2.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != wantState.Seq || st.LastExec != wantState.LastExec {
		t.Fatalf("cq state after restart: %+v, want seq=%d lastExec=%d", st, wantState.Seq, wantState.LastExec)
	}

	// The resumed CQ keeps computing differentially: a new qualifying
	// row fires the trigger and the seq continues past the old one.
	insertRow(t, sys2.Store, "SUN", 77)
	if _, err := sys2.Manager.Poll(); err != nil {
		t.Fatal(err)
	}
	st2, _ := sys2.Manager.State("watch")
	if st2.Seq != wantState.Seq+1 {
		t.Fatalf("post-restart seq %d, want %d", st2.Seq, wantState.Seq+1)
	}
	res2, _ := sys2.Manager.Result("watch")
	if res2.Len() != 3 { // DEC, HP, SUN
		t.Fatalf("post-restart result len %d: %v", res2.Len(), res2)
	}
}

func TestDropIsDurable(t *testing.T) {
	fs := faults.NewMemFS(2)
	sys := openSys(t, fs, 0)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 150)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager.Drop("watch"); err != nil {
		t.Fatal(err)
	}
	// Crash without a close: the drop must still be gone after replay.
	fs.CrashClean()
	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	if sys2.Recovery.CQs != 0 {
		t.Fatalf("dropped cq resurrected: %+v", sys2.Recovery)
	}
	if names := sys2.Manager.Names(); len(names) != 0 {
		t.Fatalf("names after drop+recovery: %v", names)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	fs := faults.NewMemFS(3)
	sys := openSys(t, fs, 4)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		insertRow(t, sys.Store, "r", int64(i))
	}
	// The threshold checkpoint runs on a background goroutine; wait for
	// a checkpoint file to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		names, err := fs.List("data")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range names {
			if len(n) > 10 && n[:10] == "checkpoint" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after threshold; dir: %v", names)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	got, _ := sys2.Store.Snapshot("stocks")
	if got.Len() != 8 {
		t.Fatalf("recovered %d rows, want 8", got.Len())
	}
}

func TestRecoveryMetrics(t *testing.T) {
	fs := faults.NewMemFS(4)
	sys := openSys(t, fs, 0)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 1)
	insertRow(t, sys.Store, "IBM", 2)
	fs.CrashClean() // skip the close checkpoint so records must replay

	reg := obs.NewRegistry()
	sys2, err := durable.Open(durable.Options{
		Dir:     "data",
		FS:      fs,
		Fsync:   wal.FsyncAlways,
		Metrics: reg,
		CQ:      cq.Config{UseDRA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if sys2.Recovery.Records != 3 { // create + 2 txs
		t.Fatalf("records replayed: %+v", sys2.Recovery)
	}
	snap := reg.Snapshot()
	if snap.Gauges["wal.records_replayed"] != 3 {
		t.Fatalf("wal.records_replayed gauge: %v", snap.Gauges)
	}
	if snap.Gauges["wal.recovery_ns"] <= 0 {
		t.Fatalf("wal.recovery_ns gauge: %v", snap.Gauges)
	}
}

// TestQuarantineSurvivesRecovery is the satellite kill-point test: a
// poison CQ (division by zero once a v=0 row lands) trips quarantine,
// the registry checkpoints, and the process dies without a clean close.
// After recovery the CQ must resume in probation — not healthy (it
// would hammer the poll loop again) and not silently dropped — and a
// failing probe must re-quarantine it, while a healthy CQ on the same
// table keeps refreshing throughout.
func TestQuarantineSurvivesRecovery(t *testing.T) {
	fs := faults.NewMemFS(7)
	guardCfg := cq.Config{
		UseDRA: true, AutoGC: true,
		Guard: guard.Policy{FailureThreshold: 1, BackoffBase: time.Hour, BackoffMax: time.Hour},
		Logf:  func(string, ...any) {},
	}
	open := func() *durable.System {
		t.Helper()
		sys, err := durable.Open(durable.Options{
			Dir: "data", FS: fs, Fsync: wal.FsyncAlways, CQ: guardCfg,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return sys
	}
	sys := open()
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "seed", 60)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.RegisterSQL(`CREATE CONTINUAL QUERY poison AS
		SELECT name FROM stocks WHERE 100 / v > 1
		TRIGGER UPDATES 1
		MODE COMPLETE`); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "zero", 0) // poison: 100 / 0 fails evaluation
	if _, err := sys.Manager.Poll(); err == nil {
		t.Fatal("poison poll returned nil error")
	}
	st, err := sys.Manager.State("poison")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "quarantined" {
		t.Fatalf("pre-crash health = %q", st.Health)
	}
	// The healthy CQ refreshed through the same round.
	if wst, _ := sys.Manager.State("watch"); wst.Health != "healthy" || wst.Seq < 2 {
		t.Fatalf("watch state = %+v", wst)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.CrashClean() // kill-point: no clean shutdown

	sys2 := open()
	defer sys2.Close()
	st, err = sys2.Manager.State("poison")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "probation" {
		t.Fatalf("post-recovery health = %q, want probation", st.Health)
	}
	if wst, _ := sys2.Manager.State("watch"); wst.Health != "healthy" {
		t.Fatalf("watch resumed %q", wst.Health)
	}
	// Probation seeded at recovery makes the probe due immediately
	// (no stale hour-long backoff); it fails on the still-poisoned
	// data: straight back to quarantine.
	insertRow(t, sys2.Store, "more", 70)
	if _, err := sys2.Manager.Poll(); err == nil {
		t.Fatal("probe poll returned nil error")
	}
	st, _ = sys2.Manager.State("poison")
	if st.Health != "quarantined" {
		t.Fatalf("post-probe health = %q, want quarantined", st.Health)
	}
	// The healthy CQ caught up differentially across crash + probe.
	wres, err := sys2.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if wres.Len() != 2 { // seed(60), more(70)
		t.Fatalf("watch result = %d rows", wres.Len())
	}
}

// TestRecoveredAutoCQKeepsRepicking: recovery re-prepares a CQ with the
// configured strategy, as registration does, not with the concrete pick
// the journal recorded. A recovered Auto join must still move to
// propagate once every refresh rewrites its whole base.
func TestRecoveredAutoCQKeepsRepicking(t *testing.T) {
	fs := faults.NewMemFS(6)
	sys := openSys(t, fs, 0)
	for _, name := range []string{"l", "r"} {
		if err := sys.Store.CreateTable(name, relation.MustSchema(
			relation.Column{Name: "k", Type: relation.TInt},
			relation.Column{Name: "v", Type: relation.TInt},
		)); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(s *storage.Store, f func(tx *storage.Tx) error) {
		t.Helper()
		tx := s.Begin()
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(sys.Store, func(tx *storage.Tx) error {
		for k := int64(0); k < 8; k++ {
			for _, name := range []string{"l", "r"} {
				if _, err := tx.Insert(name, []relation.Value{relation.Int(k), relation.Int(k)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if _, err := sys.Manager.RegisterSQL(`CREATE CONTINUAL QUERY j AS
		SELECT l.k, l.v, r.v FROM l JOIN r ON l.k = r.k
		TRIGGER UPDATES 1
		MODE COMPLETE`); err != nil {
		t.Fatal(err)
	}
	refresh := func(sys *durable.System) {
		t.Helper()
		if _, err := sys.Manager.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		commit(sys.Store, func(tx *storage.Tx) error {
			_, err := tx.Insert("l", []relation.Value{relation.Int(int64(100 + i)), relation.Int(0)})
			return err
		})
		refresh(sys)
	}
	if st, _ := sys.Manager.State("j"); st.Strategy != "truth-table" {
		t.Fatalf("strategy before the crash = %q, want truth-table", st.Strategy)
	}

	fs.Crash()
	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	for round := 0; round < 16; round++ {
		commit(sys2.Store, func(tx *storage.Tx) error {
			for _, name := range []string{"l", "r"} {
				rel, err := sys2.Store.Snapshot(name)
				if err != nil {
					return err
				}
				for _, tup := range rel.Tuples() {
					vals := []relation.Value{tup.Values[0], relation.Int(int64(round))}
					if err := tx.Update(name, tup.TID, vals); err != nil {
						return err
					}
				}
			}
			return nil
		})
		refresh(sys2)
	}
	st, err := sys2.Manager.State("j")
	if err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "propagate" {
		t.Fatalf("recovered auto CQ strategy after full-rewrite rounds = %q, want propagate", st.Strategy)
	}
}
