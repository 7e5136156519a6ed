package main

import (
	"fmt"
	"math"
	"math/rand"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/gen"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// The plan workload: core.AnalyzeEstimated under the histogram model,
// with no execution, on chain and cycle schemes with key-like domains.
// The histogram catalog re-merges two histograms on every Size call, so
// the estimate layer does nearly all the work and no join runs: a kernel
// change must show nothing here.

const (
	planRelations = 6
	// planRows is the tuples per relation, drawn from a domain of the
	// same size. It keeps one op near 100 ms, so a run holds enough ops
	// for ten samples beyond p90.
	planRows = 3000
)

// planPattern is one pass, a case per position: 4 chain and 9 cycle
// cases. Cycles plan slower, so p50 and p90 both fall inside the cycle
// block, and 13 positions keep both percentiles off a case boundary.
var planPattern = []string{
	"cycle", "chain", "cycle", "cycle", "chain", "cycle", "cycle",
	"cycle", "chain", "cycle", "cycle", "chain", "cycle",
}

type planCase struct {
	shape string
	db    *database.Database
	cat   *estimate.HistogramCatalog
	// tau maps each reference plan, by expression, to its true τ.
	tau map[string]int64
}

type planBench struct{ cases []planCase }

func buildPlan(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &planBench{}
	for _, name := range planPattern {
		sh := gen.Chain
		if name == "cycle" {
			sh = gen.Cycle
		}
		db := gen.Uniform(rng, gen.Schemes(sh, planRelations), planRows, planRows)
		if err := db.Validate(); err != nil {
			return nil, err
		}
		b.cases = append(b.cases, planCase{shape: name, db: db})
	}
	return b, nil
}

// planned lists every strategy an estimated analysis returns.
func planned(an *core.EstimatedAnalysis) []core.EstimatedResult {
	out := append([]core.EstimatedResult(nil), an.Results...)
	out = append(out, an.Greedy)
	if an.Yannakakis != nil {
		out = append(out, *an.Yannakakis)
	}
	return out
}

// reference builds each case's histogram catalog and the true τ of the
// plans the planner picks, by replaying each with relation.Join.
func (b *planBench) reference() error {
	for i := range b.cases {
		c := &b.cases[i]
		c.cat = estimate.NewHistogramCatalog(c.db)
		an, err := core.AnalyzeEstimated(c.db, core.ModelHistogram, nil, nil)
		if err != nil {
			return err
		}
		c.tau = map[string]int64{}
		for _, r := range planned(an) {
			_, tau := replay(c.db, r.Strategy, relation.Join)
			c.tau[core.EncodePlanExpr(r.Strategy)] = tau
		}
	}
	return nil
}

func (b *planBench) passLen() int       { return len(b.cases) }
func (b *planBench) warmupOps() int     { return len(b.cases) }
func (b *planBench) class(i int) string { return b.cases[i%len(b.cases)].shape }

func (b *planBench) run(i int) any {
	an, err := core.AnalyzeEstimated(b.cases[i%len(b.cases)].db, core.ModelHistogram, nil, nil)
	if err != nil {
		return err
	}
	return an
}

// check requires every chosen strategy to cover all relations with an
// Est equal to the reference catalog's Cost of it (to 1e-9 relative, as
// the two sum the same terms in different orders), and returns the
// plans' true τ.
func (b *planBench) check(i int, out any) (int64, error) {
	c := &b.cases[i%len(b.cases)]
	an, ok := out.(*core.EstimatedAnalysis)
	if !ok {
		return 0, errf(c.shape, "planning failed: %v", out)
	}
	var tau int64
	for _, r := range planned(an) {
		if err := r.Strategy.Validate(c.db.All()); err != nil {
			return 0, errf(c.shape, "%v plan: %v", r.Space, err)
		}
		want := c.cat.Cost(r.Strategy)
		if math.Abs(r.Est-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return 0, errf(c.shape, "%v plan Est=%g, catalog Cost=%g", r.Space, r.Est, want)
		}
		t, ok := c.tau[core.EncodePlanExpr(r.Strategy)]
		if !ok {
			return 0, errf(c.shape, "%v plan %s differs from the reference run's", r.Space, core.EncodePlanExpr(r.Strategy))
		}
		tau += t
	}
	return tau, nil
}

// traced plans layer by layer — the histogram catalog, the four model
// DPs and the model greedy through a SizeModel wrapper that times each
// Size call, the join tree on acyclic schemes — then runs
// core.AnalyzeEstimated as the probe whose answer is checked.
func (b *planBench) traced(i int, tr *tracer, c *counts) (any, func() error) {
	db := b.cases[i%len(b.cases)].db
	var hc *estimate.HistogramCatalog
	tr.span("estimate.histogram", func() { hc = estimate.NewHistogramCatalog(db) })
	plans, states, calls := modelPlans(db, hc.Size, tr)
	var out any
	tr.probe("core.plan", func() {
		an, err := core.AnalyzeEstimated(db, core.ModelHistogram, nil, nil)
		if err != nil {
			out = err
			return
		}
		out = an
	})
	return out, func() error {
		c.add("optimizer.states", float64(states))
		c.add("estimate.size_calls", float64(calls))
		if an, ok := out.(*core.EstimatedAnalysis); ok {
			return samePlans(plans, planned(an))
		}
		return nil
	}
}

// modelPlans runs what core.AnalyzeEstimated runs after its catalog —
// the four model DPs, the model greedy and, on acyclic schemes, the
// join-tree strategy costed under the model — and returns the plans with
// the DP states and Size calls they took.
func modelPlans(db *database.Database, size optimizer.SizeModel, tr *tracer) (plans []*strategy.Node, states int, calls int64) {
	ts := &timedSize{model: size}
	for _, sp := range optimizer.DPSpaces() {
		tr.modelCall("optimizer.model_dp", ts, func() {
			if res, err := optimizer.OptimizeModel(db, ts.size, sp); err == nil {
				plans = append(plans, res.Strategy)
				states += res.States
			}
		})
	}
	tr.modelCall("optimizer.model_greedy", ts, func() {
		if res, err := optimizer.GreedyModel(db, ts.size); err == nil {
			plans = append(plans, res.Strategy)
			states += res.States
		}
	})
	tr.modelCall("semijoin.join_tree", ts, func() {
		if !db.Graph().AcyclicComponents() {
			return
		}
		if node, err := semijoin.JoinTreeStrategy(db); err == nil {
			for _, st := range node.Steps() {
				ts.size(st.Set())
			}
			plans = append(plans, node)
		}
	})
	return plans, states, ts.calls
}

// samePlans requires the layer-by-layer plans to equal core's.
func samePlans(got []*strategy.Node, want []core.EstimatedResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("layer-by-layer planning found %d plans, core %d", len(got), len(want))
	}
	for k := range got {
		if !got[k].Equal(want[k].Strategy) {
			return fmt.Errorf("layer-by-layer %v plan differs from core's", want[k].Space)
		}
	}
	return nil
}

func (b *planBench) fingerprints() []core.Fingerprint {
	out := make([]core.Fingerprint, len(b.cases))
	for i, c := range b.cases {
		out[i] = core.FingerprintDB(c.db)
	}
	return out
}

func (b *planBench) properties() map[string]float64 { return map[string]float64{} }
