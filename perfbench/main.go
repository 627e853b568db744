// Command perfbench is the repository benchmark: it drives the engine's
// layers (storage.Tx, cq.Manager, durable.Open) on one of three seeded
// workloads, checks every continual query against complete
// re-evaluation, and prints each metric by name and unit. The last line
// of standard output is one JSON object for machine consumption.
//
//	perfbench --workload alerts-push --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run measures the timed phase twice, first untraced
// and then with in-memory spans around every call into a layer, and
// reports the per-layer metrics plus the tracing overhead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// outDir holds the data directories and trace files, relative to the
// repository root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// runOpts is what every workload receives from the command line.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dataDir holds the run's data directories and is removed at exit;
	// traceDir keeps the span files of traced runs.
	dataDir, traceDir string
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
}

// tracePath is where a traced run writes its spans.
func (o runOpts) tracePath() string {
	return filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", o.workload, o.seed))
}

// workloadFunc runs one workload and returns its report.
type workloadFunc func(o runOpts, tiny bool) (*report, error)

var workloads = map[string]workloadFunc{
	"alerts-push":    runAlerts,
	"join-poll":      runJoinPoll,
	"rollup-durable": runRollup,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: alerts-push, join-poll or rollup-durable")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := runOpts{
		workload:  *wl,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		dataDir:   filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())),
		traceDir:  filepath.Join(outDir, "traces"),
		setupReps: 7,
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.dataDir)
	start := time.Now()
	rep, err := run(o, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	rep.finish()
	rep.env.add("wall_s", fmt.Sprintf("%.1f", time.Since(start).Seconds()))
	return conclude(rep, o.trace, stdout, stderr)
}

// conclude prints the report and returns the exit code: 1 when any
// operation failed (an oracle mismatch, a commit error, a refresh
// error, an overflow, a dropped notification, a commit no notification
// covered, a push backlog left after FlushPush, or a phase cut short),
// since the timings would then be taken over part of the work.
func conclude(rep *report, traced bool, stdout, stderr io.Writer) int {
	rep.print(stdout, traced)
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %s failed: %d of %d operations failed, %d oracle mismatches\n",
			rep.workload, rep.failed, rep.attempted, rep.oracleMismatches)
		return 1
	}
	return 0
}
