package database

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// cycleDB is the n-cycle R_i = {A_i, A_(i+1 mod n)} with a few rows per
// relation.
func cycleDB(n int) *Database {
	rels := make([]*relation.Relation, n)
	for i := range rels {
		a := relation.Attr(fmt.Sprintf("A%d", i))
		b := relation.Attr(fmt.Sprintf("A%d", (i+1)%n))
		r := relation.New(fmt.Sprintf("R%d", i), relation.NewSchema(a, b))
		for k := 0; k < 4; k++ {
			r.Insert(relation.Tuple{a: relation.Value(fmt.Sprint(k % 3)), b: relation.Value(fmt.Sprint((k + i) % 3))})
		}
		rels[i] = r
	}
	return New(rels...)
}

// disjointDB is n relations of rows rows each over pairwise disjoint
// single-attribute schemes: every join of them is a Cartesian product.
func disjointDB(n, rows int) *Database {
	rels := make([]*relation.Relation, n)
	for i := range rels {
		a := relation.Attr(fmt.Sprintf("X%d", i))
		r := relation.New(fmt.Sprintf("R%d", i), relation.NewSchema(a))
		for k := 0; k < rows; k++ {
			r.Insert(relation.Tuple{a: relation.Value(fmt.Sprint(k))})
		}
		rels[i] = r
	}
	return New(rels...)
}

func schemeGraph(schemes ...string) *hypergraph.Graph {
	out := make([]relation.Schema, len(schemes))
	for i, s := range schemes {
		out[i] = relation.SchemaFromString(s)
	}
	return hypergraph.New(out)
}

// memoSubsets lists the subsets an evaluator has materialized.
func memoSubsets(ev *Evaluator) []hypergraph.Set {
	var out []hypergraph.Set
	ev.memoRange(func(s hypergraph.Set, _ *relation.Relation) bool {
		out = append(out, s)
		return true
	})
	return out
}

func TestSplitBuildsNoAvoidableCartesianProduct(t *testing.T) {
	graphs := map[string]*hypergraph.Graph{
		"cycle6": cycleDB(6).Graph(),
		"chain5": schemeGraph("AB", "BC", "CD", "DE", "EF"),
		"mixed":  schemeGraph("AB", "XY", "BC", "YZ", "Q", "CD"),
	}
	for name, g := range graphs {
		g.All().Subsets(func(s hypergraph.Set) bool {
			if s.Len() < 2 {
				return true
			}
			left := split(g, s)
			right := s.Minus(left)
			if left.Empty() || right.Empty() || !left.SubsetOf(s) {
				t.Fatalf("%s: split(%v) = %v | %v", name, s, left, right)
			}
			if g.Connected(s) {
				if right.Len() != 1 || !g.Connected(left) {
					t.Errorf("%s: connected %v split into %v | %v", name, s, left, right)
				}
			} else if right != g.Component(s) {
				t.Errorf("%s: unconnected %v split into %v | %v, want its first component on the right", name, s, left, right)
			}
			return true
		})
	}
}

// Plan steps that wrap through relation 0 of a cycle, such as
// {R5, R0, R1}, must not split off R0: the rest would be unconnected.
func TestEvalOfConnectedSubsetMemoizesOnlyConnectedSubsets(t *testing.T) {
	db := cycleDB(6)
	g := db.Graph()
	g.ConnectedSubsetsOf(db.All(), func(s hypergraph.Set) bool {
		ev := NewEvaluator(db)
		ev.Eval(s)
		for _, m := range memoSubsets(ev) {
			if !g.Connected(m) {
				t.Errorf("Eval(%v) materialized the unconnected subset %v", s, m)
			}
		}
		return true
	})
}

func TestEvalJoinFollowsTheGivenSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	db := randomChain(rng, 4, 5, 3)
	rec := obs.NewRecorder()
	ev := NewEvaluator(db).WithRecorder(rec)
	a, b := hypergraph.Set(0b0011), hypergraph.Set(0b1100)
	got := ev.EvalJoin(a, b)
	if !got.Equal(NewEvaluator(db).Result()) {
		t.Fatal("EvalJoin result differs from the default split's")
	}
	want := map[hypergraph.Set]bool{1: true, 2: true, 4: true, 8: true, a: true, b: true, a | b: true}
	for _, m := range memoSubsets(ev) {
		if !want[m] {
			t.Errorf("EvalJoin(%v, %v) materialized %v, outside the split", a, b, m)
		}
	}
	// Any split of a memoized subset is a hit on the same state.
	misses := rec.Counter(obs.MetricEvalMemoMisses).Value()
	if ev.EvalJoin(hypergraph.Set(0b0001), hypergraph.Set(0b1110)) != got {
		t.Error("a second split of a memoized subset built a new state")
	}
	if after := rec.Counter(obs.MetricEvalMemoMisses).Value(); after != misses {
		t.Errorf("memo misses %d → %d on a memoized subset", misses, after)
	}
}

func TestEvalJoinPanicsOnBadSplits(t *testing.T) {
	ev := NewEvaluator(cycleDB(3))
	for _, c := range [][2]hypergraph.Set{{0, 1}, {1, 0}, {0b011, 0b110}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalJoin(%v, %v) did not panic", c[0], c[1])
				}
			}()
			ev.EvalJoin(c[0], c[1])
		}()
	}
}

// A Cartesian step's size is known before the join, so a tuple budget
// trips before the product is built: five 30-row relations over
// disjoint schemes would make a 24.3 M-tuple result.
func TestCartesianStepTripsBeforeBuild(t *testing.T) {
	db := disjointDB(5, 30)
	const limit = 1_000_000
	g := guard.New(context.Background(), guard.Limits{MaxTuples: limit})
	rec := obs.NewRecorder()
	ev := NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := evalTrapped(func() { ev.Result() })
	runtime.ReadMemStats(&after)
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want a tuples budget error, got %v", err)
	}
	if be.Spent != 837_900 || be.Refused != 24_300_000 || be.Limit != limit {
		t.Errorf("error reports spent %d, refused %d, limit %d; want 837900, 24300000, %d", be.Spent, be.Refused, be.Limit, limit)
	}
	// The 24.3 M-tuple product alone would need ~490 MB of ID slab.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 100<<20 {
		t.Errorf("tripped evaluation allocated %d MB", alloc>>20)
	}
	// Nothing was charged or memoized for the refused step, so the
	// ledger still reconciles and stays within the budget.
	spent, states, steps := g.Spent()
	if c := rec.Counter(obs.MetricEvalTuples).Value(); c != spent || spent != 837_900 {
		t.Errorf("eval.tuples %d, guard tuples %d, want both 837900", c, spent)
	}
	if steps != 3 || states != 3 || rec.Counter(obs.MetricEvalSteps).Value() != steps {
		t.Errorf("charged %d steps, %d states; want the 3 products built", steps, states)
	}
	if _, ok := ev.memoGet(db.All()); ok {
		t.Error("the refused product was memoized")
	}
	// Retrying trips again, still without building or charging.
	if err := evalTrapped(func() { ev.Result() }); !errors.As(err, &be) {
		t.Errorf("retry: want a budget error, got %v", err)
	}
	if again, _, _ := g.Spent(); again != spent {
		t.Errorf("retry charged %d tuples", again-spent)
	}
}

// Linked steps are charged after they are built, as before: the
// pre-build check applies to Cartesian steps only.
func TestLinkedStepChargedAfterBuild(t *testing.T) {
	db := cycleDB(4)
	probe := guard.New(context.Background(), guard.Limits{})
	NewEvaluator(db).WithGuard(probe).Result()
	total, _, _ := probe.Spent()
	g := guard.New(context.Background(), guard.Limits{MaxTuples: total - 1})
	ev := NewEvaluator(db).WithGuard(g)
	var be *guard.BudgetError
	if err := evalTrapped(func() { ev.Result() }); !errors.As(err, &be) {
		t.Fatalf("want a budget error, got %v", err)
	}
	if spent, _, _ := g.Spent(); spent != total {
		t.Errorf("spent %d, want %d: the tripping step is charged", spent, total)
	}
}
