package query

import (
	"context"
	"fmt"

	"repro/internal/geom"
)

// Bindings maps the shape names of a parsed query to concrete shapes.
type Bindings map[string]geom.Poly

// Plan records how a query was executed, per DNF conjunct: the driver
// literal (evaluated through the index) and the literals checked per
// image.
type Plan struct {
	Conjuncts []ConjunctPlan
}

// ConjunctPlan is the plan for one DNF term.
type ConjunctPlan struct {
	Term         string
	Driver       string  // the literal evaluated via the index ("" if none)
	DriverEst    float64 // estimated result size of the driver
	DriverActual int     // images the driver produced
	FilterChecks int     // per-image predicate checks performed
	ResultSize   int
}

// String renders a plan compactly.
func (p *Plan) String() string {
	s := ""
	for i, c := range p.Conjuncts {
		if i > 0 {
			s += " UNION "
		}
		s += fmt.Sprintf("[%s; driver=%s est=%.1f got=%d checks=%d -> %d]",
			c.Term, c.Driver, c.DriverEst, c.DriverActual, c.FilterChecks, c.ResultSize)
	}
	return s
}

// Eval executes a query expression against the database (§5.4): the
// expression is rewritten to DNF; within each conjunct the positive
// literal with the smallest estimated selectivity is evaluated through
// the index, and the remaining literals are checked image-by-image on the
// driver's result; conjuncts with only negated literals start from the
// full image set. The conjunct results are united.
func (db *DB) Eval(ctx context.Context, e Expr, binds Bindings) (ImageSet, *Plan, error) {
	if !db.frozen {
		return nil, nil, fmt.Errorf("query: database must be frozen")
	}
	conjuncts := ToDNF(e)
	if len(conjuncts) == 0 {
		return nil, nil, fmt.Errorf("query: empty expression")
	}
	result := make(ImageSet)
	plan := &Plan{}
	// The DNF rewrite duplicates literals across conjuncts; a per-query
	// memo ensures each distinct operator hits the index at most once.
	memo := make(map[string]ImageSet)
	for _, c := range conjuncts {
		set, cp, err := db.evalConjunct(ctx, c, binds, memo)
		if err != nil {
			return nil, nil, err
		}
		plan.Conjuncts = append(plan.Conjuncts, cp)
		result = result.Union(set)
	}
	return result, plan, nil
}

// EvalString parses and evaluates a textual query.
func (db *DB) EvalString(ctx context.Context, src string, binds Bindings) (ImageSet, *Plan, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return db.Eval(ctx, e, binds)
}

// literalEstimate returns the §5.4 selectivity estimate of a positive
// literal.
func (db *DB) literalEstimate(l Literal, binds Bindings) (float64, error) {
	switch op := l.Op.(type) {
	case SimilarOp:
		q, err := bind(binds, op.Name)
		if err != nil {
			return 0, err
		}
		return db.est.Estimate(q), nil
	case TopoOp:
		q1, err := bind(binds, op.Name1)
		if err != nil {
			return 0, err
		}
		q2, err := bind(binds, op.Name2)
		if err != nil {
			return 0, err
		}
		// min of the two sides (§5.4).
		return minF(db.est.Estimate(q1), db.est.Estimate(q2)), nil
	default:
		return 0, fmt.Errorf("query: bad literal %T", l.Op)
	}
}

// evalLiteralFull evaluates a positive literal through the index,
// memoizing by the operator's rendered form.
func (db *DB) evalLiteralFull(ctx context.Context, op Expr, binds Bindings, memo map[string]ImageSet) (ImageSet, error) {
	key := op.String()
	if memo != nil {
		if set, ok := memo[key]; ok {
			return set, nil
		}
	}
	set, err := db.evalLiteralFullUncached(ctx, op, binds)
	if err != nil {
		return nil, err
	}
	if memo != nil {
		memo[key] = set
	}
	return set, nil
}

func (db *DB) evalLiteralFullUncached(ctx context.Context, op Expr, binds Bindings) (ImageSet, error) {
	switch v := op.(type) {
	case SimilarOp:
		q, err := bind(binds, v.Name)
		if err != nil {
			return nil, err
		}
		return db.Similar(ctx, q)
	case TopoOp:
		q1, err := bind(binds, v.Name1)
		if err != nil {
			return nil, err
		}
		q2, err := bind(binds, v.Name2)
		if err != nil {
			return nil, err
		}
		set, _, err := db.Topological(ctx, v.Rel, q1, q2, v.Theta)
		return set, err
	default:
		return nil, fmt.Errorf("query: bad operator %T", op)
	}
}

// checkLiteral tests a literal on one image.
func (db *DB) checkLiteral(l Literal, binds Bindings, imageID int) (bool, error) {
	var ok bool
	switch v := l.Op.(type) {
	case SimilarOp:
		q, err := bind(binds, v.Name)
		if err != nil {
			return false, err
		}
		ok = db.CheckSimilarOnImage(imageID, q)
	case TopoOp:
		q1, err := bind(binds, v.Name1)
		if err != nil {
			return false, err
		}
		q2, err := bind(binds, v.Name2)
		if err != nil {
			return false, err
		}
		ok = db.CheckTopologicalOnImage(imageID, v.Rel, q1, q2, v.Theta)
	default:
		return false, fmt.Errorf("query: bad literal %T", l.Op)
	}
	if l.Neg {
		ok = !ok
	}
	return ok, nil
}

func (db *DB) evalConjunct(ctx context.Context, c Conjunct, binds Bindings, memo map[string]ImageSet) (ImageSet, ConjunctPlan, error) {
	cp := ConjunctPlan{Term: c.String()}
	// Choose the positive literal with the smallest estimate as driver.
	driver := -1
	var bestEst float64
	for i, l := range c {
		if l.Neg {
			continue
		}
		est, err := db.literalEstimate(l, binds)
		if err != nil {
			return nil, cp, err
		}
		if driver < 0 || est < bestEst {
			driver, bestEst = i, est
		}
	}
	var current ImageSet
	if driver >= 0 {
		set, err := db.evalLiteralFull(ctx, c[driver].Op, binds, memo)
		if err != nil {
			return nil, cp, err
		}
		current = set
		cp.Driver = c[driver].String()
		cp.DriverEst = bestEst
		cp.DriverActual = len(set)
	} else {
		// Only negated literals: start from the universe.
		current = db.AllImages()
		cp.Driver = "(all images)"
		cp.DriverEst = float64(db.NumImages())
		cp.DriverActual = len(current)
	}
	// Filter by the remaining literals, image by image.
	for i, l := range c {
		if i == driver {
			continue
		}
		filtered := make(ImageSet)
		for img := range current {
			if err := ctx.Err(); err != nil {
				return nil, cp, err
			}
			ok, err := db.checkLiteral(l, binds, img)
			if err != nil {
				return nil, cp, err
			}
			cp.FilterChecks++
			if ok {
				filtered.Add(img)
			}
		}
		current = filtered
	}
	cp.ResultSize = len(current)
	return current, cp, nil
}

func bind(binds Bindings, name string) (geom.Poly, error) {
	q, ok := binds[name]
	if !ok {
		return geom.Poly{}, fmt.Errorf("query: unbound shape name %q", name)
	}
	return q, nil
}
