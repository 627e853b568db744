package dra

import (
	"fmt"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/vclock"
)

// Strategy selects how a prepared plan refreshes.
type Strategy int

const (
	// StrategyAuto picks by cost model at preparation and adaptively
	// re-picks every repickEvery refreshes.
	StrategyAuto Strategy = iota
	// StrategyTruthTable runs Algorithm 1's 2^k-1 term expansion with
	// the cross-refresh operand cache.
	StrategyTruthTable
	// StrategyPropagate recomputes the query on both states and diffs —
	// the paper's complete re-evaluation, cheapest when deltas approach
	// base size.
	StrategyPropagate
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyTruthTable:
		return "truth-table"
	case StrategyPropagate:
		return "propagate"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy reads a Strategy from its String form.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "auto":
		return StrategyAuto, nil
	case "truth-table", "truthtable":
		return StrategyTruthTable, nil
	case "propagate":
		return StrategyPropagate, nil
	default:
		return StrategyAuto, fmt.Errorf("dra: unknown strategy %q", s)
	}
}

// Cost-model constants. The ratio threshold mirrors the paper's
// observation that differential evaluation loses to complete
// re-evaluation once the update window is a sizable fraction of the
// base.
const (
	// propagateRatio is the delta-rows / base-rows EWMA above which a
	// refresh is cheaper recomputed from scratch.
	propagateRatio = 0.5
	// repickEvery is the refresh period of the adaptive re-pick.
	repickEvery = 8
	// ratioAlpha is the EWMA weight of the newest delta/base observation.
	ratioAlpha = 0.25
)

// Prepared is the compile-once refresh pipeline for one standing query:
// the compiled plan tree (predicates, projections, join bindings, term
// metadata) and the cross-refresh operand index cache are built at
// registration and reused by every Step, so a refresh only pays for
// delta rows. A Prepared additionally owns the refresh strategy — truth
// table or propagate — picked by a cost model under StrategyAuto and
// re-evaluated as the workload drifts.
//
// A Prepared serves one CQ and is not safe for concurrent use; the cq
// manager serializes refreshes per instance.
type Prepared struct {
	engine *Engine
	plan   algebra.Plan
	root   *compiledNode // nil outside the SPJ class (always propagates)
	fp     uint64
	tables []string

	requested Strategy // as passed to Prepare; Auto enables re-picking
	cur       Strategy // concrete strategy in effect

	// Cost-model state: an EWMA of delta rows over observed base
	// cardinality, the last observed base size, and the refresh count
	// since preparation.
	ratio    float64
	baseSize int
	steps    int

	closed bool
}

// Prepare compiles the plan once and picks the refresh strategy.
// strategy Auto defers to the cost model; a forced strategy the plan
// cannot run (TruthTable on a non-SPJ plan) is an error, so callers can
// fall back explicitly rather than silently.
func (e *Engine) Prepare(plan algebra.Plan, strategy Strategy) (*Prepared, error) {
	start := time.Now()
	p := &Prepared{
		engine:    e,
		plan:      plan,
		fp:        algebra.PlanFingerprint(plan),
		requested: strategy,
	}
	for _, s := range algebra.Tables(plan) {
		p.tables = append(p.tables, s.Table)
	}
	if supportsDifferential(plan) {
		root, err := compilePlan(plan)
		if err != nil {
			return nil, err
		}
		root.eachJoin(func(cj *compiledJoin) {
			cj.cache = newOpCache(e, cj)
		})
		p.root = root
	}

	switch strategy {
	case StrategyAuto:
		p.cur = p.pick()
	case StrategyTruthTable:
		if p.root == nil {
			return nil, fmt.Errorf("%w: truth-table strategy needs an SPJ plan", ErrUnsupportedPlan)
		}
		p.cur = StrategyTruthTable
	case StrategyPropagate:
		p.cur = StrategyPropagate
	default:
		return nil, fmt.Errorf("dra: unknown strategy %d", int(strategy))
	}

	if m := e.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(1)
		}
		m.PrepareNS.Observe(time.Since(start))
	}
	return p, nil
}

// Strategy reports the concrete strategy currently in effect.
func (p *Prepared) Strategy() Strategy { return p.cur }

// Fingerprint identifies the compiled plan shape (algebra.PlanFingerprint).
func (p *Prepared) Fingerprint() uint64 { return p.fp }

// Tables returns the plan's operand set — the base tables whose deltas
// can change the result. This is the routing key of push-based refresh:
// the commit router indexes each prepared CQ under exactly these names,
// so a committed delta reaches precisely the plans it can affect.
func (p *Prepared) Tables() []string {
	out := make([]string, len(p.tables))
	copy(out, p.tables)
	return out
}

// Close releases the prepared state: the strategy gauge unit and the
// operand caches. The Prepared must not be stepped afterwards.
func (p *Prepared) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if m := p.engine.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(-1)
		}
	}
	if p.root != nil {
		p.root.eachJoin(func(cj *compiledJoin) {
			if cj.cache != nil {
				cj.cache.invalidate()
			}
		})
	}
}

// Step runs one refresh over the window in ctx, producing the signed
// change at execTS. All strategies produce the same net change; they
// differ only in cost.
func (p *Prepared) Step(ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("dra: Step on closed Prepared")
	}
	p.steps++
	if p.requested == StrategyAuto && p.steps%repickEvery == 0 {
		p.repick()
	}

	root := p.root
	if p.cur == StrategyPropagate {
		root = nil
	}
	res, err := p.engine.evaluate(p.plan, root, ctx, execTS)
	if err != nil {
		return nil, err
	}
	p.observeCost(ctx)
	return res, nil
}

// pick applies the cost model to the current state.
func (p *Prepared) pick() Strategy {
	if p.root == nil {
		return StrategyPropagate
	}
	if p.baseSize > 0 && p.ratio > propagateRatio {
		return StrategyPropagate
	}
	return StrategyTruthTable
}

// repick re-runs the cost model and switches strategies when the answer
// changed.
func (p *Prepared) repick() {
	next := p.pick()
	if next == p.cur {
		return
	}
	p.setStrategy(next)
	if m := p.engine.Metrics; m != nil {
		m.Repicks.Inc()
	}
}

// setStrategy moves the gauge unit; the truth table's operand caches
// are invalidated on entry because propagate left them unadvanced.
func (p *Prepared) setStrategy(next Strategy) {
	if m := p.engine.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(-1)
		}
		if g := m.strategyGauge(next); g != nil {
			g.Add(1)
		}
	}
	if next == StrategyTruthTable && p.root != nil {
		p.root.eachJoin(func(cj *compiledJoin) {
			if cj.cache != nil {
				cj.cache.invalidate()
			}
		})
	}
	p.cur = next
}

// observeCost folds this refresh's window size and observed base
// cardinality into the cost-model state. Base size is read from the
// operand cache replicas, with the previous result as a floor, so the
// model keeps tracking even across propagate-only stretches.
func (p *Prepared) observeCost(ctx *Context) {
	deltaRows := 0
	for _, t := range p.tables {
		if d := ctx.Deltas[t]; d != nil {
			deltaRows += d.Len()
		}
	}
	base := 0
	if p.root != nil {
		p.root.eachJoin(func(cj *compiledJoin) {
			if cj.cache == nil {
				return
			}
			for _, ent := range cj.cache.ents {
				if ent != nil {
					base += ent.rel.Len()
				}
			}
		})
	}
	if base == 0 && ctx.Prev != nil {
		base = ctx.Prev.Len()
	}
	if base > 0 {
		p.baseSize = base
		p.ratio = (1-ratioAlpha)*p.ratio + ratioAlpha*(float64(deltaRows)/float64(base))
	}
}
