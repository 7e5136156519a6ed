package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// ledgerSchemes draws the scheme classes of the τ-ledger test with n
// relations: the fixed shapes, random connected and random acyclic
// schemes, and an unconnected scheme of a chain, a second chain over
// other attributes and an isolated relation.
func ledgerSchemes(rng *rand.Rand, n int) map[string][]relation.Schema {
	out := map[string][]relation.Schema{
		"chain":     gen.Schemes(gen.Chain, n),
		"star":      gen.Schemes(gen.Star, n),
		"connected": gen.RandomConnectedSchemes(rng, n, 0.3),
		"acyclic":   gen.RandomAcyclicSchemes(rng, n),
	}
	if n >= 3 {
		out["cycle"] = gen.Schemes(gen.Cycle, n)
		var un []relation.Schema
		for i := 0; i < n-1; i++ {
			prefix := "A"
			if i >= (n-1)/2 {
				prefix = "B"
			}
			un = append(un, relation.NewSchema(relation.Attr(fmt.Sprint(prefix, i)), relation.Attr(fmt.Sprint(prefix, i+1))))
		}
		out["unconnected"] = append(un, relation.NewSchema("Z"))
	}
	return out
}

// replayTau is τ(S) computed outside the evaluator: each step joins its
// children's states with relation.Join.
func replayTau(db *database.Database, n *Node) (*relation.Relation, int) {
	if n.IsLeaf() {
		return db.Relation(n.Index()), 0
	}
	l, lt := replayTau(db, n.Left())
	r, rt := replayTau(db, n.Right())
	out := relation.Join(l, r)
	return out, lt + rt + out.Size()
}

// checkLedger executes s on a fresh guarded, recorded evaluator and
// requires the charges to be exactly the strategy's own steps.
func checkLedger(t *testing.T, name string, db *database.Database, s *Node) {
	t.Helper()
	_, tau := replayTau(db, s)
	fresh := func() (*database.Evaluator, *guard.Guard, *obs.Recorder) {
		g := guard.New(context.Background(), guard.Limits{})
		rec := obs.NewRecorder()
		return database.NewEvaluator(db).WithGuard(g).WithRecorder(rec), g, rec
	}
	ledger := func(what string, got int, g *guard.Guard, rec *obs.Recorder) {
		t.Helper()
		tuples, states, steps := g.Spent()
		if got != tau || tuples != int64(tau) || rec.Counter(obs.MetricEvalTuples).Value() != tuples {
			t.Fatalf("%s %v: %s = %d, guard tuples %d, eval.tuples %d, replayed τ %d",
				name, s, what, got, tuples, rec.Counter(obs.MetricEvalTuples).Value(), tau)
		}
		if want := int64(s.StepCount()); steps != want || states != want {
			t.Fatalf("%s %v: %s charged %d steps and %d states, want %d", name, s, what, steps, states, want)
		}
	}

	ev, g, rec := fresh()
	ledger("Cost", s.Cost(ev), g, rec)

	ev, g, rec = fresh()
	sum := 0
	for _, c := range s.StepCosts(ev) {
		sum += c
	}
	ledger("Σ StepCosts", sum, g, rec)

	ev, g, rec = fresh()
	tr := TraceEvaluation(ev, s)
	events := 0
	for _, e := range rec.Events() {
		if e.Kind == "step" {
			events += int(e.Tuples)
		}
	}
	ledger("trace τ", tr.Total, g, rec)
	if events != tau {
		t.Fatalf("%s %v: step events sum to %d, τ = %d", name, s, events, tau)
	}
}

// Executing a strategy through the evaluator generates exactly τ(S)
// tuples: each step is built from its own children, so the guard's
// tuple ledger, the eval.tuples counter and Cost agree with a replay of
// the plan, step for step.
func TestExecutionChargesExactlyTau(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for n := 2; n <= 7; n++ {
		for name, schemes := range ledgerSchemes(rng, n) {
			db := gen.Uniform(rng, schemes, 4, 3)
			if n <= 5 {
				EnumerateAll(db.All(), func(s *Node) bool {
					checkLedger(t, name, db, s)
					return true
				})
				continue
			}
			for k := 0; k < 40; k++ {
				checkLedger(t, name, db, randomTree(rng, db.All()))
			}
		}
	}
}

// DOT renders from the same plan-directed materialization.
func TestDOTBuildsOnlyThePlansSteps(t *testing.T) {
	db := gen.Uniform(rand.New(rand.NewSource(162)), gen.Schemes(gen.Cycle, 5), 4, 3)
	s := Combine(Combine(Leaf(4), Leaf(0)), Combine(Leaf(1), Combine(Leaf(2), Leaf(3))))
	_, tau := replayTau(db, s)
	g := guard.New(context.Background(), guard.Limits{})
	DOT(database.NewEvaluator(db).WithGuard(g), s)
	if tuples, _, _ := g.Spent(); tuples != int64(tau) {
		t.Errorf("DOT materialized %d tuples, τ(S) = %d", tuples, tau)
	}
}
