package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
)

// runTiny runs one workload at its tiny size for a fraction of a second
// and returns the printed output with the parsed JSON line.
func runTiny(t *testing.T, workload string, traced bool) (*report, string, map[string]any) {
	t.Helper()
	dir := t.TempDir()
	o := runOpts{
		workload:  workload,
		seed:      3,
		seconds:   0.4,
		trace:     traced,
		dataDir:   filepath.Join(dir, "data"),
		traceDir:  filepath.Join(dir, "traces"),
		setupReps: 2,
	}
	rep, err := workloads[workload](o, true)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	rep.finish()
	var out, errs bytes.Buffer
	if code := conclude(rep, traced, &out, &errs); code != 0 {
		t.Errorf("%s traced=%v: exit code %d: %s", workload, traced, code, errs.String())
	}
	return rep, out.String(), lastJSON(t, out.String())
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny size and
// checks that every named metric is printed with its unit, that the
// JSON line carries exactly the metrics of its mode, and that the
// oracle ran and passed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	extra := map[string][]string{
		"alerts-push":    {"notify_p99_ms", "commit_p99_us", "loadgen_late_p50_ms", "loadgen_late_p99_ms", "fail_frac"},
		"join-poll":      {"notify_p99_ms", "commit_p99_us", "round_p50_ms", "round_p99_ms", "fail_frac"},
		"rollup-durable": {"notify_p99_ms", "commit_p99_us", "recovery_s", "fail_frac"},
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			rep, text, res := runTiny(t, name, traced)
			if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%v failed=%v\n%s",
					name, traced, res["correct"], res["attempted"], res["failed"], text)
			}
			if rep.oracleChecks == 0 || rep.oracleMismatches != 0 {
				t.Errorf("%s: oracle checks %d mismatches %d", name, rep.oracleChecks, rep.oracleMismatches)
			}
			metrics := res["metrics"].(map[string]any)
			want := endToEnd
			if traced {
				want = nil
				for _, l := range perLayer {
					want = append(want, l.name)
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in JSON, want %d", name, traced, len(metrics), len(want))
			}
			for _, k := range want {
				m, ok := metrics[k].(map[string]any)
				if !ok || m["unit"] == "" {
					t.Errorf("%s traced=%v: metric %s missing or without unit", name, traced, k)
					continue
				}
				if !traced && m["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", name, k, m["value"])
				}
			}
			for _, k := range append(append([]string(nil), endToEnd...), extra[name]...) {
				if !strings.Contains(text, "metric "+k+" ") {
					t.Errorf("%s: %s not printed", name, k)
				}
			}
			if !strings.Contains(text, "env ops_hash_all") || !strings.Contains(text, "env nproc") {
				t.Errorf("%s: environment block incomplete:\n%s", name, text)
			}
		}
	}
}

// lastJSON parses the last line of a run's output.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return res
}

// TestRunFailsOnUncoveredCommits runs alerts-push at its tiny size with
// the witness subscriptions cancelled, so no commit gets the witness
// notification that shows it was delivered. The oracle still passes;
// the run must fail anyway.
func TestRunFailsOnUncoveredCommits(t *testing.T) {
	w, err := newAlertsWorld(alertsTiny, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, cancel := range w.cancels[len(w.cancels)-len(w.witness):] {
		cancel()
	}
	ph := w.run(0.3, nil, nil)
	rep := newReport("alerts-push")
	rep.count(&ph.phaseStats)
	rep.oracle(newOracle(w.store, w.mgr).pass(w.names, w.queries))
	rep.finish()
	if rep.oracleMismatches != 0 || len(ph.commits) == 0 || ph.uncovered != len(ph.commits) {
		t.Fatalf("mismatches %d, commits %d, uncovered %d", rep.oracleMismatches, len(ph.commits), ph.uncovered)
	}
	var out, errs bytes.Buffer
	if code := conclude(rep, false, &out, &errs); code == 0 {
		t.Errorf("run with %d uncovered commits exited 0", ph.uncovered)
	}
	if res := lastJSON(t, out.String()); res["correct"] != false {
		t.Errorf("correct = %v with %d uncovered commits", res["correct"], ph.uncovered)
	}
}

// TestRunFailsOnPushBacklog checks that a push backlog left after
// FlushPush fails a run whose every other operation succeeded.
func TestRunFailsOnPushBacklog(t *testing.T) {
	p := beginPhase(obs.NewRegistry())
	p.finish()
	rep := newReport("alerts-push")
	rep.count(&phaseStats{p: p, ops: 10, checks: 5, pending: 1})
	rep.finish()
	var out, errs bytes.Buffer
	if code := conclude(rep, false, &out, &errs); code == 0 {
		t.Error("run with a push backlog exited 0")
	}
	if res := lastJSON(t, out.String()); res["correct"] != false || res["failed"].(float64) != 1 {
		t.Errorf("correct = %v, failed = %v with a push backlog", res["correct"], res["failed"])
	}
}

// TestOracleRejectsCorruptedResult hands the oracle a maintained result
// with one value changed, and one with a tuple missing, and requires a
// mismatch for each; the untouched result and a last-bit FLOAT rounding
// difference must pass.
// TestP50IsMedianOverSlices checks that a reported p50 is the median of
// the per-slice medians: two slow slices of five, even with most of the
// samples, do not move it, and the unclosed trailing slice is left out.
func TestP50IsMedianOverSlices(t *testing.T) {
	s := phaseStats{windows: make([]window, 5)}
	var l latencies
	for k, lvl := range []time.Duration{10, 11, 12, 50, 60} {
		n := 3
		if lvl >= 50 {
			n = 10
		}
		for i := 0; i < n; i++ {
			l.add(lvl*time.Millisecond, k)
		}
	}
	l.add(time.Second, 5)
	if got := s.p50(&l); got != 12*time.Millisecond {
		t.Errorf("p50 = %v, want 12ms", got)
	}
	if got := quantile(l.ds, 0.5); got != 50*time.Millisecond {
		t.Errorf("whole-phase median = %v, want 50ms (the case the slices guard against)", got)
	}
}

func TestOracleRejectsCorruptedResult(t *testing.T) {
	w, err := newJoinWorld(joinTiny, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.run(0.2, nil, nil)
	orc := newOracle(w.store, w.mgr)
	for _, name := range []string{"j2c", "sel"} {
		st, err := w.mgr.State(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.mgr.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() < 2 {
			t.Fatalf("%s: result too small to corrupt (%d rows)", name, got.Len())
		}
		if err := orc.checkResult(name, w.queries[name], st.LastExec, got); err != nil {
			t.Fatalf("%s: untouched result rejected: %v", name, err)
		}
		price, ok := got.Schema().ColIndex("price")
		if !ok {
			t.Fatalf("%s: no price column in %s", name, got.Schema())
		}

		nudged := got.Clone()
		tup := nudged.At(0)
		if !tup.Values[price].IsNull() {
			vals := append([]relation.Value(nil), tup.Values...)
			f := vals[price].AsFloat()
			vals[price] = relation.Float(f + f*1e-13)
			if err := nudged.Update(tup.TID, vals); err != nil {
				t.Fatal(err)
			}
			if err := orc.checkResult(name, w.queries[name], st.LastExec, nudged); err != nil {
				t.Errorf("%s: rounding difference rejected: %v", name, err)
			}
		}

		changed := got.Clone()
		tup = changed.At(0)
		vals := append([]relation.Value(nil), tup.Values...)
		vals[price] = relation.Float(-1)
		if err := changed.Update(tup.TID, vals); err != nil {
			t.Fatal(err)
		}
		if err := orc.checkResult(name, w.queries[name], st.LastExec, changed); !errors.Is(err, errOracle) {
			t.Errorf("%s: changed value not detected: %v", name, err)
		}

		short := got.Clone()
		if err := short.Delete(short.At(1).TID); err != nil {
			t.Fatal(err)
		}
		if err := orc.checkResult(name, w.queries[name], st.LastExec, short); !errors.Is(err, errOracle) {
			t.Errorf("%s: missing tuple not detected: %v", name, err)
		}
	}
}

// TestOperationStreamFollowsSeed checks that one seed always generates
// the same operations, whatever the engine does with them, and that
// another seed generates different ones.
func TestOperationStreamFollowsSeed(t *testing.T) {
	stream := func(seed int64) uint64 {
		w, err := newJoinWorld(joinTiny, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		for i := 0; i < 30; i++ {
			tx := w.store.Begin()
			if err := w.batch(tx); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				if _, err := w.mgr.Poll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return w.g.hash()
	}
	a, b, c := stream(11), stream(11), stream(12)
	if a != b {
		t.Errorf("seed 11 produced two streams: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 11 and 12 produced the same stream %x", a)
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json at the
// repository root names exactly the metrics this program prints, with
// the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("end_to_end: %d in BENCHMARK.json, %d printed", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, program prints %s", i, m.Name, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
