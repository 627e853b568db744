package bench

import "fmt"

// Runner produces one experiment table at a scale.
type Runner func(Scale) (*Table, error)

// Experiment pairs an id with its runner and one-line description.
type Experiment struct {
	ID   string
	Desc string
	Run  Runner
}

// All lists every experiment in EXPERIMENTS.md order. E1 (the Example 1
// differential relation) is a correctness test, not a measurement; see
// internal/delta TestExample1 and internal/storage TestExample1Transaction.
func All() []Experiment {
	return []Experiment{
		{"E2", "Example 2: select query, DRA vs complete re-evaluation", E2},
		{"E3", "update-fraction sweep and crossover", E3},
		{"E4", "selectivity sweep", E4},
		{"E5", "3-way join truth-table expansion", E5},
		{"E6", "network bytes: delta vs full-result shipping", E6},
		{"E7", "server scalability with clients", E7},
		{"E8", "trigger evaluation: differential vs base scan", E8},
		{"E9", "garbage collection by active delta zone", E9},
		{"E10", "epsilon bound vs refresh count", E10},
		{"E11", "append-only baseline staleness", E11},
		{"E12", "irrelevant-update refinement", E12},
		{"E13", "complete-result maintenance", E13},
		{"E14", "mirror refresh latency under injected faults", E14},
		{"E15", "parallel group refresh: throughput vs worker count", E15},
		{"E16", "prepared vs per-refresh compilation + operand index cache", E16},
		{"E17", "delta WAL: logging overhead and differential crash recovery", E17},
		{"E18", "push vs poll: commit-to-notification latency and coalescing", E18},
		{"E19", "chaos: healthy-CQ latency beside poison CQs, quarantine on/off", E19},
		{"E20", "template sharing: shared plan + parameter dispatch vs private plans", E20},
		{"E21", "columnar vs row refresh: typed kernels + pooled batch arena", E21},
		{"E22", "cascading CQs: INTO pipeline depth, latency, and delta-bound leaf cost", E22},
		{"A1", "ablation: heuristic term ordering", A1},
		{"A2", "ablation: delta compaction", A2},
		{"A3", "ablation: hash vs nested-loop term joins", A3},
		{"A4", "ablation: incremental aggregates vs Propagate fallback", A4},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
