package query

import (
	"context"
	"fmt"

	"repro/internal/core"
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

// Add sums the plan another database made of the same prepared query into
// p, conjunct by conjunct: the first plan added sets the terms and
// drivers, every plan adds its estimates and counts.
func (p *Plan) Add(o *Plan) {
	if len(p.Conjuncts) == 0 {
		p.Conjuncts = append(p.Conjuncts, o.Conjuncts...)
		return
	}
	for i, c := range o.Conjuncts {
		s := &p.Conjuncts[i]
		s.DriverEst += c.DriverEst
		s.DriverActual += c.DriverActual
		s.FilterChecks += c.FilterChecks
		s.ResultSize += c.ResultSize
	}
}

// Prepared is a parsed query in DNF whose every named shape is prepared:
// what DB.Eval evaluates, so a read over several databases parses and
// prepares once, and each shape's distance field serves every one of them.
type Prepared struct {
	terms  []Conjunct
	shapes map[string]bound
}

// bound is one named shape of a query, prepared, with its significant
// vertices V_S (§5.2).
type bound struct {
	pq *core.PreparedQuery
	vs float64
}

// Prepare parses src, rewrites it to DNF and prepares every shape it names
// from binds. An unbound name or an invalid shape fails it.
func Prepare(src string, binds Bindings) (*Prepared, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	q := &Prepared{terms: ToDNF(e), shapes: make(map[string]bound)}
	for _, c := range q.terms {
		for _, l := range c {
			var names []string
			switch op := l.Op.(type) {
			case SimilarOp:
				names = []string{op.Name}
			case TopoOp:
				names = []string{op.Name1, op.Name2}
			}
			for _, name := range names {
				if _, done := q.shapes[name]; done {
					continue
				}
				s, ok := binds[name]
				if !ok {
					return nil, fmt.Errorf("query: unbound shape name %q", name)
				}
				if err := s.Validate(); err != nil {
					return nil, fmt.Errorf("core: invalid query: %w", err)
				}
				pq, err := core.PrepareQuery(s)
				if err != nil {
					return nil, err
				}
				q.shapes[name] = bound{pq, SignificantVertices(s)}
			}
		}
	}
	return q, nil
}

// Eval executes a prepared query against the database (§5.4): within
// each DNF conjunct the positive literal with the smallest estimated
// selectivity is evaluated through the index, and the remaining literals
// are checked image-by-image on the driver's result; conjuncts with only
// negated literals start from the full image set. The conjunct results
// are united.
func (db *DB) Eval(ctx context.Context, q *Prepared) (ImageSet, *Plan, error) {
	if !db.frozen {
		return nil, nil, fmt.Errorf("query: database must be frozen")
	}
	result := make(ImageSet)
	plan := &Plan{}
	// The DNF rewrite duplicates literals across conjuncts; a per-query
	// memo ensures each distinct operator hits the index at most once.
	memo := make(map[string]ImageSet)
	for _, c := range q.terms {
		set, cp, err := db.evalConjunct(ctx, q, c, memo)
		if err != nil {
			return nil, nil, err
		}
		plan.Conjuncts = append(plan.Conjuncts, cp)
		result = result.Union(set)
	}
	return result, plan, nil
}

// EvalString parses, prepares and evaluates a textual query.
func (db *DB) EvalString(ctx context.Context, src string, binds Bindings) (ImageSet, *Plan, error) {
	q, err := Prepare(src, binds)
	if err != nil {
		return nil, nil, err
	}
	return db.Eval(ctx, q)
}

// literalEstimate returns the §5.4 selectivity estimate of a positive
// literal.
func (db *DB) literalEstimate(q *Prepared, l Literal) float64 {
	if op, ok := l.Op.(TopoOp); ok {
		// min of the two sides (§5.4).
		return min(db.estimate(q.shapes[op.Name1]), db.estimate(q.shapes[op.Name2]))
	}
	return db.estimate(q.shapes[l.Op.(SimilarOp).Name])
}

// evalLiteralFull evaluates a positive literal through the index,
// memoizing by the operator's rendered form.
func (db *DB) evalLiteralFull(ctx context.Context, q *Prepared, op Expr, memo map[string]ImageSet) (ImageSet, error) {
	key := op.String()
	if set, ok := memo[key]; ok {
		return set, nil
	}
	var set ImageSet
	var err error
	if v, ok := op.(TopoOp); ok {
		q1, q2 := q.shapes[v.Name1], q.shapes[v.Name2]
		set, err = db.topological(ctx, v.Rel, q1, q2, v.Theta, db.strategy(q1, q2))
	} else {
		set, err = db.similar(ctx, q.shapes[op.(SimilarOp).Name])
	}
	if err != nil {
		return nil, err
	}
	memo[key] = set
	return set, nil
}

// checkLiteral tests a literal on one image.
func (db *DB) checkLiteral(q *Prepared, l Literal, g *ImageGraph) bool {
	var ok bool
	if v, isTopo := l.Op.(TopoOp); isTopo {
		ok = db.topologicalOn(g, v.Rel, q.shapes[v.Name1].pq, q.shapes[v.Name2].pq, v.Theta)
	} else {
		ok = db.similarOn(g, q.shapes[l.Op.(SimilarOp).Name].pq)
	}
	return ok != l.Neg
}

func (db *DB) evalConjunct(ctx context.Context, q *Prepared, c Conjunct, memo map[string]ImageSet) (ImageSet, ConjunctPlan, error) {
	cp := ConjunctPlan{Term: c.String()}
	// Choose the positive literal with the smallest estimate as driver.
	driver := -1
	var bestEst float64
	for i, l := range c {
		if l.Neg {
			continue
		}
		if est := db.literalEstimate(q, l); driver < 0 || est < bestEst {
			driver, bestEst = i, est
		}
	}
	var current ImageSet
	if driver >= 0 {
		set, err := db.evalLiteralFull(ctx, q, c[driver].Op, memo)
		if err != nil {
			return nil, cp, err
		}
		current = set
		cp.Driver = c[driver].String()
		cp.DriverEst = bestEst
	} else {
		// Only negated literals: start from the universe.
		current = db.AllImages()
		cp.Driver = "(all images)"
		cp.DriverEst = float64(len(current))
	}
	cp.DriverActual = len(current)
	// Filter by the remaining literals, image by image.
	for i, l := range c {
		if i == driver {
			continue
		}
		filtered := make(ImageSet)
		for _, g := range current {
			if err := ctx.Err(); err != nil {
				return nil, cp, err
			}
			cp.FilterChecks++
			if db.checkLiteral(q, l, g) {
				filtered.Add(g)
			}
		}
		current = filtered
	}
	cp.ResultSize = len(current)
	return current, cp, nil
}
