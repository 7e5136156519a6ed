package main

import (
	"context"
	"fmt"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
)

// The analyze workload: core.Analyze, the exact four-space analysis,
// over a corpus of small fan-out databases. Exact analysis materializes
// every subset of the scheme, Cartesian ones included, so the evaluator
// and the kernel's small and Cartesian joins dominate; conditions, the
// DP search and the acyclic fast path take the rest. Each shape is sized
// so its cases cost within about 2x of the other shapes'.
//
// The random shapes' schemes come from a fixed panel (schemeSeed) and
// only their rows from the run's seed, as for the fixed shapes: a
// scheme's structure moves its cost threefold, and a new structure per
// seed would move the whole corpus's cost from run to run.

// analyzeShape is one family of analyze cases.
type analyzeShape struct {
	name            string
	n, rows, domain int
	schemes         func(panel *rand.Rand, n int) []relation.Schema
}

var analyzeShapes = []analyzeShape{
	{"chain", 6, 30, 7, func(_ *rand.Rand, n int) []relation.Schema { return gen.Schemes(gen.Chain, n) }},
	{"cycle", 7, 30, 4, func(_ *rand.Rand, n int) []relation.Schema { return gen.Schemes(gen.Cycle, n) }},
	{"star", 7, 30, 5, func(_ *rand.Rand, n int) []relation.Schema { return gen.Schemes(gen.Star, n) }},
	{"random-connected", 6, 25, 4, func(panel *rand.Rand, n int) []relation.Schema {
		return gen.RandomConnectedSchemes(panel, n, 0.2)
	}},
	{"random-acyclic", 6, 20, 4, gen.RandomAcyclicSchemes},
}

const (
	// analyzeCasesPerShape cases of each shape make one pass; 45 cases
	// keep p50 and p90 off a case boundary.
	analyzeCasesPerShape = 9
	schemeSeed           = 1
)

type analyzeCase struct {
	shape string
	db    *database.Database
	ref   *core.Analysis
}

type analyzeBench struct{ cases []analyzeCase }

func buildAnalyze(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	panel := rand.New(rand.NewSource(schemeSeed))
	b := &analyzeBench{}
	for k := 0; k < analyzeCasesPerShape; k++ {
		for _, sh := range analyzeShapes {
			db := gen.Uniform(rng, sh.schemes(panel, sh.n), sh.rows, sh.domain)
			if err := db.Validate(); err != nil {
				return nil, err
			}
			b.cases = append(b.cases, analyzeCase{shape: sh.name, db: db})
		}
	}
	return b, nil
}

// reference analyzes every case with the four subspace DPs run one at a
// time on the calling goroutine.
func (b *analyzeBench) reference() error {
	for i := range b.cases {
		an, err := core.AnalyzeEvaluatorSequential(database.NewEvaluator(b.cases[i].db))
		if err != nil {
			return err
		}
		if !an.Complete() {
			return fmt.Errorf("case %d: reference analysis truncated", i)
		}
		b.cases[i].ref = an
	}
	return nil
}

func (b *analyzeBench) passLen() int       { return len(b.cases) }
func (b *analyzeBench) warmupOps() int     { return len(b.cases) }
func (b *analyzeBench) class(i int) string { return b.cases[i%len(b.cases)].shape }

func (b *analyzeBench) run(i int) any {
	an, err := core.Analyze(b.cases[i%len(b.cases)].db)
	if err != nil {
		return err
	}
	return an
}

// check compares each subspace's τ and the certificates with the
// sequential reference.
func (b *analyzeBench) check(i int, out any) (int64, error) {
	c := &b.cases[i%len(b.cases)]
	an, ok := out.(*core.Analysis)
	if !ok {
		return 0, errf(c.shape, "analysis failed: %v", out)
	}
	ref := c.ref
	if len(an.Results) != len(ref.Results) {
		return 0, errf(c.shape, "%d subspace results, reference has %d", len(an.Results), len(ref.Results))
	}
	var tau int64
	for k, r := range an.Results {
		if r.Space != ref.Results[k].Space || r.Cost != ref.Results[k].Cost {
			return 0, errf(c.shape, "%v τ=%d, reference %v τ=%d", r.Space, r.Cost, ref.Results[k].Space, ref.Results[k].Cost)
		}
		tau += int64(r.Cost)
	}
	if len(an.Certificates) != len(ref.Certificates) {
		return 0, errf(c.shape, "%d certificates, reference has %d", len(an.Certificates), len(ref.Certificates))
	}
	for k, cert := range an.Certificates {
		if cert.Theorem != ref.Certificates[k].Theorem || cert.Space != ref.Certificates[k].Space {
			return 0, errf(c.shape, "certificate %d differs from the reference", k)
		}
	}
	if (an.Yannakakis == nil) != (ref.Yannakakis == nil) {
		return 0, errf(c.shape, "acyclic fast path presence differs from the reference")
	}
	if an.Yannakakis != nil {
		if an.Yannakakis.Tau != ref.Yannakakis.Tau {
			return 0, errf(c.shape, "yannakakis τ=%d, reference %d", an.Yannakakis.Tau, ref.Yannakakis.Tau)
		}
		tau += int64(an.Yannakakis.Tau)
	}
	return tau, nil
}

// traced runs the analysis layer by layer on one governed, recorded
// evaluator — materialize, the four cold DPs, conditions on the now-full
// memo, the acyclic fast path — then the probes: the four DPs again on
// the full memo (pure search time), a replay of the full-space optimum
// with relation.Join, and the parallel core.AnalyzeEvaluator whose
// answer the op is checked by.
func (b *analyzeBench) traced(i int, tr *tracer, c *counts) (any, func() error) {
	db := b.cases[i%len(b.cases)].db
	var (
		g    *guard.Guard
		rec  *obs.Recorder
		ev   *database.Evaluator
		full *optimizer.Result
		y    *semijoin.Evaluation
	)
	seq0 := tr.now()
	tr.span("database.materialize", func() {
		g = guard.New(context.Background(), guard.Limits{})
		rec = obs.NewRecorder()
		ev = database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
		ev.Result()
	})
	states := 0
	for _, sp := range optimizer.DPSpaces() {
		tr.span("optimizer.optimize", func() {
			if res, err := optimizer.Optimize(ev, sp); err == nil {
				states += res.States
				if sp == optimizer.SpaceAll {
					full = &res
				}
			}
		})
	}
	tr.span("conditions.check", func() { conditions.CheckAll(ev) })
	tr.span("semijoin.yannakakis", func() {
		if db.Graph().AcyclicComponents() {
			y, _ = semijoin.YannakakisGuarded(db, g, rec)
		}
	})
	seq := tr.now() - seq0
	for _, sp := range optimizer.DPSpaces() {
		tr.probe("optimizer.optimize_warm", func() { _, _ = optimizer.Optimize(ev, sp) })
	}
	var joins joinTally
	if full != nil {
		replay(db, full.Strategy, tracedJoin(tr, &joins))
	}
	var (
		out  any
		prec *obs.Recorder
		pev  *database.Evaluator
	)
	tr.probe("core.analyze", func() {
		prec = obs.NewRecorder()
		pev = database.NewEvaluator(db).WithRecorder(prec)
		an, err := core.AnalyzeEvaluator(pev)
		if err != nil {
			out = err
			return
		}
		out = an
	})
	return out, func() error {
		c.add("core.sequential_ns", float64(seq))
		joins.addTo(c)
		c.add("optimizer.states", float64(states))
		if y != nil {
			c.add("semijoin.semijoins", float64(y.Reduction.Semijoins))
		}
		snap := prec.Snapshot().Counters
		c.add("database.eval_tuples", float64(snap[obs.MetricEvalTuples]))
		c.add("database.memo_hits", float64(snap[obs.MetricEvalMemoHits]))
		c.add("database.memo_misses", float64(snap[obs.MetricEvalMemoMisses]))
		c.add("database.inflight_waits", float64(snap[obs.MetricEvalInflightWaits]))
		c.add("database.memo_subsets", float64(pev.MemoLen()))
		return ledger(rec, g, c)
	}
}

// ledger checks the program's τ ledger identity on a run governed by an
// unlimited guard: eval.tuples + plan.yannakakis.tuples equals the
// guard's tuple spend.
func ledger(rec *obs.Recorder, g *guard.Guard, c *counts) error {
	cnt := rec.Snapshot().Counters
	got := cnt[obs.MetricEvalTuples] + cnt[obs.MetricYannakakisTuples]
	spent := g.Snapshot().Tuples.Spent
	c.add("trace.ledger_checks", 1)
	if got != spent {
		return fmt.Errorf("ledger: eval.tuples+plan.yannakakis.tuples=%d, guard spent %d", got, spent)
	}
	return nil
}

func (b *analyzeBench) fingerprints() []core.Fingerprint {
	out := make([]core.Fingerprint, len(b.cases))
	for i, c := range b.cases {
		out[i] = core.FingerprintDB(c.db)
	}
	return out
}

func (b *analyzeBench) properties() map[string]float64 { return map[string]float64{} }
