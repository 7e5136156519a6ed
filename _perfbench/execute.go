package main

import (
	"context"
	"fmt"
	"math/rand"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// The execute workload: plan with the uniform model, then
// EstimatedAnalysis.ExecuteChosen on a fresh evaluator. Two families in
// fixed shares:
//
//   - scale: chain and star schemes, 6 relations of 2·10⁴ rows over a
//     key-like domain. Every subset of these schemes is connected, so
//     the evaluator's lowest-index split stays linked and the work is
//     hash joins above the kernel's parallel threshold. (Cycles are left
//     out: a plan step that wraps around relation 0 splits into a
//     Cartesian product of two 2·10⁴-row joins.)
//   - tree: an α-acyclic scheme of 8 relations with 30 rows over a
//     30-value domain. The evaluator splits off the lowest-index
//     relation whatever the plan says, so it materializes Cartesian
//     products the plan avoided; database.work_ratio.tree shows it.
//
// The tree scheme is fixed — the first draw of gen.RandomAcyclicSchemes
// from schemeSeed — and the run's seed draws its rows. How far the
// evaluator over-works depends on where a tree puts its low indexes:
// between draws it varies a hundredfold, and a quarter of the draws
// build a Cartesian product of five 30-row relations that exhausts
// memory. This scheme's worst split has four components, about 10⁶
// tuples, which today's code completes in about 0.1 s.

const (
	scaleRelations = 6
	scaleRows      = 20000
	treeRelations  = 8
	treeRows       = 30
)

// executePattern is one pass, a database per position. Chain, star and
// tree ops cost about 40, 60 and 100 ms, so p50 falls inside the block
// of six star ops and p90 inside the block of four tree ops.
var executePattern = []string{
	"star", "tree", "chain", "star", "tree", "star",
	"star", "tree", "chain", "star", "tree", "star",
}

type executeCase struct {
	family string
	db     *database.Database
	// exprs are the reference plans in planned() order; tau their true τ
	// by relation.Join replay; size the full join's size.
	exprs []string
	tau   []int64
	size  int
}

// executeOutcome is what one op returns: the executed analysis and the
// result size read through the evaluator.
type executeOutcome struct {
	an   *core.EstimatedAnalysis
	size int
}

type executeBench struct{ cases []executeCase }

func buildExecute(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	tree := gen.RandomAcyclicSchemes(rand.New(rand.NewSource(schemeSeed)), treeRelations)
	b := &executeBench{}
	for _, fam := range executePattern {
		var db *database.Database
		switch fam {
		case "chain":
			db = gen.Uniform(rng, gen.Schemes(gen.Chain, scaleRelations), scaleRows, scaleRows)
		case "star":
			db = gen.Uniform(rng, gen.Schemes(gen.Star, scaleRelations), scaleRows, scaleRows)
		default:
			db = gen.Uniform(rng, tree, treeRows, treeRows)
		}
		if err := db.Validate(); err != nil {
			return nil, err
		}
		b.cases = append(b.cases, executeCase{family: family(fam), db: db})
	}
	return b, nil
}

// family groups the chain and star classes as the scale family.
func family(class string) string {
	if class == "tree" {
		return "tree"
	}
	return "scale"
}

func (b *executeBench) at(i int) *executeCase { return &b.cases[i%len(b.cases)] }

// reference replays each case's plans with relation.Join for their
// true τ and, on tree cases, the full-space plan with the nested-loop
// relation.ReferenceJoin for the result size.
func (b *executeBench) reference() error {
	for i := range b.cases {
		c := &b.cases[i]
		an, err := core.AnalyzeEstimated(c.db, core.ModelUniform, nil, nil)
		if err != nil {
			return err
		}
		c.exprs, c.tau = nil, nil
		for k, r := range planned(an) {
			res, tau := replay(c.db, r.Strategy, relation.Join)
			c.exprs = append(c.exprs, core.EncodePlanExpr(r.Strategy))
			c.tau = append(c.tau, tau)
			if k == 0 {
				c.size = res.Size()
			}
		}
		if c.family == "tree" {
			res, _ := replay(c.db, an.Results[0].Strategy, relation.ReferenceJoin)
			if res.Size() != c.size {
				return fmt.Errorf("tree case %d: kernel replay size %d, nested-loop oracle %d", i, c.size, res.Size())
			}
		}
	}
	return nil
}

func (b *executeBench) passLen() int       { return len(b.cases) }
func (b *executeBench) warmupOps() int     { return len(b.cases) }
func (b *executeBench) class(i int) string { return executePattern[i%len(executePattern)] }

func (b *executeBench) run(i int) any {
	db := b.at(i).db
	an, err := core.AnalyzeEstimated(db, core.ModelUniform, nil, nil)
	if err != nil {
		return err
	}
	ev := database.NewEvaluator(db)
	if err := an.ExecuteChosen(ev); err != nil {
		return err
	}
	return executeOutcome{an: an, size: ev.Result().Size()}
}

// check requires every executed plan to be the reference plan with the
// replayed τ, and the result size to match.
func (b *executeBench) check(i int, out any) (int64, error) {
	c := b.at(i)
	o, ok := out.(executeOutcome)
	if !ok {
		return 0, errf(c.family, "execution failed: %v", out)
	}
	rs := planned(o.an)
	if len(rs) != len(c.exprs) {
		return 0, errf(c.family, "%d plans, reference has %d", len(rs), len(c.exprs))
	}
	var tau int64
	for k, r := range rs {
		if e := core.EncodePlanExpr(r.Strategy); e != c.exprs[k] {
			return 0, errf(c.family, "%v plan %s, reference %s", r.Space, e, c.exprs[k])
		}
		if int64(r.TrueTau) != c.tau[k] {
			return 0, errf(c.family, "%v plan τ=%d, replay τ=%d", r.Space, r.TrueTau, c.tau[k])
		}
		tau += c.tau[k]
	}
	if o.size != c.size {
		return 0, errf(c.family, "result size %d, replay %d", o.size, c.size)
	}
	return tau, nil
}

// traced runs the op layer by layer — the uniform catalog, the model
// searches, then each chosen plan's Cost through one governed, recorded
// evaluator — then the probes: a relation.Join replay of the full-space
// plan, and core.AnalyzeEstimated plus ExecuteChosen, whose answer is
// checked.
func (b *executeBench) traced(i int, tr *tracer, c *counts) (any, func() error) {
	cs := b.at(i)
	db := cs.db
	var cat *estimate.Catalog
	tr.span("estimate.catalog", func() { cat = estimate.NewCatalog(db) })
	plans, states, calls := modelPlans(db, cat.Size, tr)
	var (
		g   *guard.Guard
		rec *obs.Recorder
		ev  *database.Evaluator
	)
	tr.span("database.eval", func() {
		g = guard.New(context.Background(), guard.Limits{})
		rec = obs.NewRecorder()
		ev = database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
		for _, p := range plans {
			p.Cost(ev)
		}
	})
	tr.span("database.materialize", func() { ev.Result() })
	var joins joinTally
	if len(plans) > 0 {
		replay(db, plans[0], tracedJoin(tr, &joins))
	}
	var (
		out any
		an  *core.EstimatedAnalysis
	)
	tr.probe("core.plan", func() {
		var err error
		if an, err = core.AnalyzeEstimated(db, core.ModelUniform, nil, nil); err != nil {
			out = err
		}
	})
	if an != nil {
		tr.probe("core.execute", func() {
			pev := database.NewEvaluator(db)
			if err := an.ExecuteChosen(pev); err != nil {
				out = err
				return
			}
			out = executeOutcome{an: an, size: pev.Result().Size()}
		})
	}
	return out, func() error {
		c.add("optimizer.states", float64(states))
		c.add("estimate.size_calls", float64(calls))
		joins.addTo(c)
		cnt := rec.Snapshot().Counters
		c.add("database.eval_tuples", float64(cnt[obs.MetricEvalTuples]))
		c.add("database.memo_hits", float64(cnt[obs.MetricEvalMemoHits]))
		c.add("database.memo_misses", float64(cnt[obs.MetricEvalMemoMisses]))
		c.add("database.inflight_waits", float64(cnt[obs.MetricEvalInflightWaits]))
		c.add("database.memo_subsets", float64(ev.MemoLen()))
		c.add("work.eval_tuples."+cs.family, float64(cnt[obs.MetricEvalTuples]))
		c.add("work.step_tuples."+cs.family, float64(stepTuples(ev, plans)))
		if err := ledger(rec, g, c); err != nil {
			return err
		}
		if an == nil {
			return nil
		}
		return samePlans(plans, planned(an))
	}
}

// stepTuples is the τ of the distinct steps of the plans: what the
// evaluator would materialize if it followed the plans' own splits.
func stepTuples(ev *database.Evaluator, plans []*strategy.Node) int64 {
	seen := map[hypergraph.Set]bool{}
	var sum int64
	for _, p := range plans {
		for _, st := range p.Steps() {
			if !seen[st.Set()] {
				seen[st.Set()] = true
				sum += int64(ev.Size(st.Set()))
			}
		}
	}
	return sum
}

func (b *executeBench) fingerprints() []core.Fingerprint {
	out := make([]core.Fingerprint, len(b.cases))
	for i, c := range b.cases {
		out[i] = core.FingerprintDB(c.db)
	}
	return out
}

func (b *executeBench) properties() map[string]float64 {
	return map[string]float64{"property.tree_op_share": share(executePattern, "tree")}
}
