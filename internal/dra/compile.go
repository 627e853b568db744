package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// compiledNode is the refresh-invariant compilation of one SPJ plan
// node: every algebra.Compile result, join binding, and predicate mask
// the differential evaluator needs, derived once so that a refresh only
// pays for delta rows. Exactly one of the kind fields is set.
//
// Reevaluate builds a transient tree per call; Prepare builds one at CQ
// registration and reuses it for the life of the query.
type compiledNode struct {
	plan algebra.Plan
	scan *algebra.ScanPlan
	sel  *compiledSelect
	proj *compiledProject
	join *compiledJoin
}

type compiledSelect struct {
	input *compiledNode
	pred  algebra.CompiledExpr
}

type compiledProject struct {
	input  *compiledNode
	items  []algebra.CompiledExpr
	schema relation.Schema
}

// equiBind is the pre-resolved form of one equi conjunct (column =
// column): the two full-width column indexes, looked up once instead of
// per truth-table term.
type equiBind struct {
	ok     bool // the conjunct is col = col
	li, ri int  // full-width column indexes of the two sides
}

// compiledJoin owns everything refresh-invariant about one flattened
// join group: its operands with their compiled subtrees, the
// cross-operand conjuncts compiled against the flattened schema, each
// conjunct's operand bitmask, and the resolved equi-join bindings.
type compiledJoin struct {
	plan      *algebra.JoinPlan
	ops       []*operand
	opNodes   []*compiledNode
	preds     []sql.Expr
	cPreds    []algebra.CompiledExpr
	masks     []uint64
	equi      []equiBind
	outSchema relation.Schema

	// cache holds pre-state operand replicas and their hash indexes
	// across refreshes. Nil on the transient Reevaluate path; set by
	// Prepare.
	cache *opCache
}

// compilePlan builds the compiled mirror of an SPJ plan. Plans outside
// the SPJ class (aggregates, distinct, sort, limit) are rejected;
// callers gate on supportsDifferential first.
func compilePlan(p algebra.Plan) (*compiledNode, error) {
	switch n := p.(type) {
	case *algebra.ScanPlan:
		return &compiledNode{plan: p, scan: n}, nil
	case *algebra.SelectPlan:
		in, err := compilePlan(n.Input)
		if err != nil {
			return nil, err
		}
		ce, err := algebra.Compile(n.Pred, n.Input.Schema())
		if err != nil {
			return nil, err
		}
		return &compiledNode{plan: p, sel: &compiledSelect{input: in, pred: ce}}, nil
	case *algebra.ProjectPlan:
		in, err := compilePlan(n.Input)
		if err != nil {
			return nil, err
		}
		items := make([]algebra.CompiledExpr, len(n.Items))
		for i, it := range n.Items {
			ce, err := algebra.Compile(it.Expr, n.Input.Schema())
			if err != nil {
				return nil, err
			}
			items[i] = ce
		}
		return &compiledNode{plan: p, proj: &compiledProject{input: in, items: items, schema: p.Schema()}}, nil
	case *algebra.JoinPlan:
		return compileJoin(n)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedPlan, p)
	}
}

// compileJoin flattens a join subtree and resolves everything the
// truth-table evaluator used to re-derive per refresh (or per term):
// compiled conjuncts, operand masks, equi bindings.
func compileJoin(n *algebra.JoinPlan) (*compiledNode, error) {
	ops, preds, err := flatten(n)
	if err != nil {
		return nil, err
	}
	opNodes := make([]*compiledNode, len(ops))
	for i, op := range ops {
		opNodes[i], err = compilePlan(op.plan)
		if err != nil {
			return nil, err
		}
	}
	outSchema := n.Schema()
	cPreds, masks, err := compilePreds(preds, outSchema, ops)
	if err != nil {
		return nil, err
	}
	equi := make([]equiBind, len(preds))
	for i, p := range preds {
		if !isEquiConjunct(p) {
			continue
		}
		be := p.(*sql.BinaryExpr)
		li, lok := outSchema.ColIndex(be.L.(*sql.ColumnRef).Name)
		ri, rok := outSchema.ColIndex(be.R.(*sql.ColumnRef).Name)
		if lok && rok {
			equi[i] = equiBind{ok: true, li: li, ri: ri}
		}
	}
	cj := &compiledJoin{
		plan:      n,
		ops:       ops,
		opNodes:   opNodes,
		preds:     preds,
		cPreds:    cPreds,
		masks:     masks,
		equi:      equi,
		outSchema: outSchema,
	}
	return &compiledNode{plan: n, join: cj}, nil
}

// eachJoin visits every join group in the tree, topmost first.
func (n *compiledNode) eachJoin(f func(*compiledJoin)) {
	switch {
	case n.sel != nil:
		n.sel.input.eachJoin(f)
	case n.proj != nil:
		n.proj.input.eachJoin(f)
	case n.join != nil:
		f(n.join)
		for _, op := range n.join.opNodes {
			op.eachJoin(f)
		}
	}
}
