// Command cqd is the continual-query server daemon: it hosts a store of
// information sources over TCP so clients (cqctl, or the remote client
// library) can snapshot tables, pull differential windows, or run
// queries. Tables and seed data load from a simple schema script.
//
//	cqd -listen 127.0.0.1:7070 -init schema.sql -http 127.0.0.1:7071
//
// The init script holds one statement per line (or ;-separated): CREATE
// TABLE, INSERT, and CREATE CONTINUAL QUERY statements in the engine's
// dialect. A demo dataset is loaded with -demo.
//
// Server-side continual queries from the init script are refreshed by a
// background poll loop (-poll interval) on a worker pool of -parallelism
// goroutines (0 = GOMAXPROCS); their deltas stay available to remote
// mirrors because the server never garbage-collects at the CQ horizon.
//
// With -data set, the daemon is durable: committed transactions and CQ
// executions append their deltas to a write-ahead log in that directory
// (-fsync selects the sync policy), checkpoints are cut automatically
// every -checkpoint-every commits and on shutdown, and a restart
// recovers the store and resumes every CQ differentially. A recovered
// data directory is authoritative: -init and -demo are ignored with a
// notice instead of re-seeding (which would duplicate rows on every
// restart). `cqctl checkpoint` forces a checkpoint remotely.
//
// With -http set, the daemon also serves its metrics over HTTP:
// GET /stats returns the metrics snapshot as JSON and GET /debug/traces
// the recent spans. The same snapshot is available over the TCP
// protocol via `cqctl stats`.
//
// Connections idle longer than -idle-timeout are shed (clients
// reconnect transparently). SIGINT/SIGTERM shuts down gracefully:
// in-flight requests drain (bounded by -drain) and the final metrics
// snapshot is printed; a second signal forces exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
	"github.com/diorama/continual/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cqd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "listen address")
	httpAddr := fs.String("http", "", "HTTP stats address (/stats, /debug/traces; empty disables)")
	initFile := fs.String("init", "", "schema/seed script")
	demo := fs.Bool("demo", false, "load the demo stock dataset")
	demoRows := fs.Int("demo-rows", 1000, "demo dataset size")
	idleTimeout := fs.Duration("idle-timeout", remote.DefaultIdleTimeout, "drop connections idle longer than this (0 disables)")
	drainTimeout := fs.Duration("drain", remote.DefaultDrainTimeout, "max wait for in-flight requests on shutdown")
	parallelism := fs.Int("parallelism", 0, "refresh worker pool size for server-side CQs (0 = GOMAXPROCS)")
	strategy := fs.String("strategy", "auto", "refresh strategy for server-side CQs (auto, truth-table, propagate)")
	pollEvery := fs.Duration("poll", 250*time.Millisecond, "poll interval for server-side CQ triggers")
	pushMode := fs.Bool("push", false, "push-based refresh: route committed deltas straight to affected CQs (poll loop stays on as fallback)")
	pushQueue := fs.Int("push-queue", 0, "bounded push queue capacity (0 = default; overflow falls back to polling)")
	dataDir := fs.String("data", "", "durable data directory (WAL + checkpoints; empty = in-memory)")
	fsyncPolicy := fs.String("fsync", "always", "WAL sync policy: always, interval, never")
	ckptEvery := fs.Int("checkpoint-every", 0, "auto-checkpoint after N committed transactions (0 = only on shutdown)")
	refreshBudget := fs.Duration("refresh-budget", 30*time.Second, "per-refresh deadline; an overrunning CQ refresh is abandoned and counted as a failure (0 disables)")
	quarantineAfter := fs.Int("quarantine-after", 0, "quarantine a CQ after N consecutive refresh failures (0 = default 3, negative disables)")
	softDeltaRows := fs.Int("soft-delta-rows", 0, "soft watermark on retained delta rows: emergency GC and push->poll coalescing (0 disables)")
	hardDeltaRows := fs.Int("hard-delta-rows", 0, "hard watermark on retained delta rows: reject writes until recovery (0 disables)")
	shareTemplates := fs.Bool("share-templates", false, "share one differential plan across CQs that differ only in comparison constants")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat, err := dra.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	// AutoGC stays off server-side: garbage-collecting at the local CQ
	// horizon would truncate delta windows that remote mirrors (which
	// refresh on their own schedule) still need.
	cqCfg := cq.Config{
		UseDRA:      true,
		AutoGC:      false,
		Parallelism: *parallelism,
		Strategy:    strat,
		Metrics:     reg,
		Push:        *pushMode,
		PushQueue:   *pushQueue,
		Guard: guard.Policy{
			Budget:           *refreshBudget,
			FailureThreshold: *quarantineAfter,
		},
		ShareTemplates: *shareTemplates,
	}
	marks := storage.Watermarks{SoftRows: *softDeltaRows, HardRows: *hardDeltaRows}
	var store *storage.Store
	var mgr *cq.Manager
	var sys *durable.System
	recovered := false
	if *dataDir != "" {
		pol, err := wal.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		sys, err = durable.Open(durable.Options{
			Dir:             *dataDir,
			Fsync:           pol,
			CheckpointEvery: *ckptEvery,
			Metrics:         reg,
			Watermarks:      marks,
			CQ:              cqCfg,
		})
		if err != nil {
			return err
		}
		store, mgr = sys.Store, sys.Manager
		recovered = sys.Recovery.HasState()
		if recovered {
			fmt.Printf("cqd: recovered %s: %d tables, %d continual queries, %d records replayed\n",
				*dataDir, len(store.TableNames()), sys.Recovery.CQs, sys.Recovery.Records)
		}
		defer func() { _ = sys.Close() }()
	} else {
		store = storage.NewStore()
		store.Instrument(reg)
		store.SetWatermarks(marks)
		mgr = cq.NewManagerConfig(store, cqCfg)
		defer func() { _ = mgr.Close() }()
	}
	if err := seed(store, mgr, recovered, *dataDir, *initFile, *demo, *demoRows); err != nil {
		return err
	}

	srv := remote.NewServer(store)
	if sys != nil {
		srv.SetCheckpointFunc(sys.Checkpoint)
	}
	srv.SetDepsFunc(func() []remote.WireDep {
		nodes := mgr.Deps()
		deps := make([]remote.WireDep, len(nodes))
		for i, n := range nodes {
			deps[i] = remote.WireDep{CQ: n.CQ, Sources: n.Sources, Target: n.Target, Stage: n.Stage}
		}
		return deps
	})
	srv.Instrument(reg)
	srv.SetIdleTimeout(*idleTimeout)
	srv.SetDrainTimeout(*drainTimeout)
	addr, err := srv.Serve(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("cqd: serving %d tables on %s\n", len(store.TableNames()), addr)
	for _, t := range store.TableNames() {
		schema, _ := store.Schema(t)
		fmt.Printf("  %s %s\n", t, schema)
	}
	if names := mgr.Names(); len(names) > 0 {
		if err := mgr.Start(*pollEvery); err != nil {
			return err
		}
		fmt.Printf("cqd: polling %d continual queries every %s (parallelism %d)\n",
			len(names), *pollEvery, *parallelism)
	}
	if *pushMode {
		fmt.Println("cqd: push-based refresh enabled (committed deltas route straight to affected CQs)")
	}

	// draining flips before the graceful drain starts so /healthz turns
	// not-ready while in-flight work still completes — the load-balancer
	// handshake: stop sending traffic, but what is here will finish.
	var draining atomic.Bool
	var httpLn net.Listener
	if *httpAddr != "" {
		httpLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		check := func() (bool, any) {
			h := mgr.Health()
			ov := store.Overload()
			rows, bytes := store.DeltaUsage()
			status := "ok"
			switch {
			case draining.Load():
				status = "draining"
			case ov >= storage.OverloadHard:
				status = "overloaded"
			case ov >= storage.OverloadSoft || h.Quarantined > 0 || h.Probation > 0:
				status = "degraded"
			}
			ready := !draining.Load() && ov < storage.OverloadHard
			return ready, map[string]any{
				"status":       status,
				"ready":        ready,
				"healthy":      h.Healthy,
				"probation":    h.Probation,
				"quarantined":  h.Quarantined,
				"degraded_cqs": h.Degraded,
				"overload":     ov.String(),
				"delta_rows":   rows,
				"delta_bytes":  bytes,
			}
		}
		go func() { _ = http.Serve(httpLn, obs.MuxHealth(reg, check)) }()
		fmt.Printf("cqd: stats on http://%s/stats, health on /healthz\n", httpLn.Addr())
	}

	// Graceful shutdown: the first signal drains — readiness goes false,
	// the listener stops, in-flight requests finish and get their
	// responses (bounded by -drain), and the final metrics snapshot is
	// flushed. The health endpoint stays up through the drain so
	// supervisors can watch it complete; it closes last. A second signal
	// forces immediate exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	fmt.Println("cqd: shutting down (signal again to force)")
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "cqd: forced exit")
		os.Exit(1)
	}()
	draining.Store(true)
	err = srv.Close()
	// Drain the push queue after the listener stops accepting work: every
	// committed delta that was routed but not yet refreshed executes (or
	// retires) now, so no notification is silently lost at exit. Pollable
	// residue (time-triggered CQs, overflowed commits) stays in the delta
	// store and is picked up on the next start.
	if *pushMode {
		if n := mgr.PushPending(); n > 0 {
			fmt.Printf("cqd: draining %d pending push refreshes\n", n)
		}
		mgr.FlushPush()
	}
	// Checkpoint after the drain so the last in-flight updates are
	// covered and the next start replays nothing.
	if sys != nil {
		if cerr := sys.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cqd: final checkpoint:", cerr)
		} else {
			fmt.Println("cqd: final checkpoint written")
		}
	} else {
		_ = mgr.Close()
	}
	if httpLn != nil {
		_ = httpLn.Close()
	}
	fmt.Println("cqd: final stats:")
	reg.Snapshot().WriteTable(os.Stdout)
	return err
}

// seed loads the -init script and/or the -demo dataset — unless the
// data directory was recovered with state, in which case the directory
// is authoritative and seeding is skipped with a notice: re-running the
// script would duplicate its rows and fail its CREATE statements on
// every restart.
func seed(store *storage.Store, mgr *cq.Manager, recovered bool, dataDir, initFile string, demo bool, demoRows int) error {
	if recovered && (initFile != "" || demo) {
		fmt.Printf("cqd: %s already initialized; ignoring -init/-demo\n", dataDir)
		return nil
	}
	if initFile != "" {
		if err := loadScript(store, mgr, initFile); err != nil {
			return err
		}
	}
	if demo {
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			return err
		}
		gen := workload.NewStocks(store, "stocks", 1, workload.DefaultMix)
		if err := gen.Seed(demoRows); err != nil {
			return err
		}
	}
	return nil
}

// loadScript executes CREATE TABLE / INSERT / CREATE CONTINUAL QUERY
// statements from a file. CQs register against the manager and are
// refreshed by its poll loop once the server starts.
func loadScript(store *storage.Store, mgr *cq.Manager, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, stmtText := range strings.Split(string(raw), ";") {
		stmtText = strings.TrimSpace(stmtText)
		if stmtText == "" {
			continue
		}
		stmt, err := sql.Parse(stmtText)
		if err != nil {
			return fmt.Errorf("script %q: %w", stmtText, err)
		}
		switch s := stmt.(type) {
		case *sql.CreateTableStmt:
			cols := make([]relation.Column, len(s.Columns))
			for i, c := range s.Columns {
				cols[i] = relation.Column{Name: c.Name, Type: c.Type}
			}
			schema, err := relation.NewSchema(cols...)
			if err != nil {
				return err
			}
			// Through the manager: DDL shares the CQ namespace guards.
			if err := mgr.CreateTable(s.Table, schema); err != nil {
				return err
			}
		case *sql.InsertStmt:
			if err := scriptInsert(store, s); err != nil {
				return err
			}
		case *sql.CreateCQStmt:
			if _, err := mgr.Register(cq.Def{
				Name:    s.Name,
				Select:  s.Select,
				Trigger: s.Trigger,
				Mode:    s.Mode,
				Stop:    s.Stop,
			}); err != nil {
				return fmt.Errorf("script %q: %w", stmtText, err)
			}
		default:
			return fmt.Errorf("script: unsupported statement %T", stmt)
		}
	}
	return nil
}

func scriptInsert(store *storage.Store, s *sql.InsertStmt) error {
	schema, err := store.Schema(s.Table)
	if err != nil {
		return err
	}
	tx := store.Begin()
	for _, row := range s.Rows {
		vals := make([]relation.Value, len(row))
		for i, e := range row {
			lit, ok := e.(*sql.Literal)
			if !ok {
				tx.Abort()
				return fmt.Errorf("script: INSERT values must be literals")
			}
			vals[i] = lit.Value
			if vals[i].Kind == relation.TInt && i < schema.Len() && schema.Col(i).Type == relation.TFloat {
				vals[i] = relation.Float(float64(vals[i].AsInt()))
			}
		}
		if _, err := tx.Insert(s.Table, vals); err != nil {
			tx.Abort()
			return err
		}
	}
	_, err = tx.Commit()
	return err
}
