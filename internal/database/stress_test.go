package database

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// TestEvaluatorConcurrentEvalStress hammers one shared evaluator from
// many goroutines, each evaluating every subset in a different order,
// half of them through EvalJoin with random splits, and checks the concurrency contract of the sharded memo:
//
//   - every goroutine sees exactly the relations a cold sequential
//     evaluator computes;
//   - each distinct subset is materialized once — `eval.memo.misses`
//     equals the memo's final population, however many callers raced,
//     because the in-flight latch collapses duplicate computations.
//
// The CI -race job runs this with the race detector on.
func TestEvaluatorConcurrentEvalStress(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	db := randomChain(rng, 7, 6, 3)
	cold := NewEvaluator(db)

	rec := obs.NewRecorder()
	ev := NewEvaluator(db).WithRecorder(rec)

	// Every non-empty subset of a 7-relation scheme, shuffled per
	// goroutine so the racers collide on different fronts.
	all := db.All()
	var subsets []hypergraph.Set
	for s := hypergraph.Set(1); s <= all; s++ {
		if s.SubsetOf(all) && !s.Empty() {
			subsets = append(subsets, s)
		}
	}

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if err := guard.Recovered(recover()); err != nil {
					errs[w] = err
				}
			}()
			order := make([]hypergraph.Set, len(subsets))
			copy(order, subsets)
			r := rand.New(rand.NewSource(int64(w)))
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, s := range order {
				// Odd racers name a random split, as plan steps do, so
				// racers on one subset also disagree on how to build it.
				var got *relation.Relation
				if w%2 == 1 && s.Len() > 1 {
					left := s & hypergraph.Set(r.Uint64())
					if left == 0 || left == s {
						left = hypergraph.Singleton(s.First())
					}
					got = ev.EvalJoin(left, s.Minus(left))
				} else {
					got = ev.Eval(s)
				}
				if !got.Equal(cold.Eval(s)) {
					t.Errorf("racer %d: subset %v differs from the sequential evaluator", w, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("racer %d panicked: %v", w, err)
		}
	}

	misses := rec.Snapshot().Counters["eval.memo.misses"]
	if got := int64(ev.MemoLen()); misses > got {
		t.Fatalf("eval.memo.misses = %d > %d distinct subsets: a subset was computed twice", misses, got)
	}
	if ev.MemoLen() != len(subsets) {
		t.Fatalf("memo holds %d subsets, want %d", ev.MemoLen(), len(subsets))
	}
}

// TestEvaluatorConcurrentGuardTrip races goroutines into a tuple budget
// that must trip mid-flight: every racer gets the same typed error or a
// clean result, no deadlock (a latch left closed would hang a waiter
// forever), and the memo stays consistent.
func TestEvaluatorConcurrentGuardTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	db := randomChain(rng, 6, 8, 3)
	probe := guard.New(context.Background(), guard.Limits{})
	NewEvaluator(db).WithGuard(probe).Result()
	total, _, _ := probe.Spent()
	if total < 2 {
		t.Skipf("fixture too small: %d tuples", total)
	}

	g := guard.New(context.Background(), guard.Limits{MaxTuples: total / 2})
	ev := NewEvaluator(db).WithGuard(g)
	const racers = 6
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				errs[w] = guard.Recovered(recover())
			}()
			ev.Result()
		}(w)
	}
	wg.Wait()
	tripped := 0
	for w, err := range errs {
		if err == nil {
			continue
		}
		if !guard.Tripped(err) {
			t.Fatalf("racer %d: non-governance error %v", w, err)
		}
		tripped++
	}
	if tripped == 0 {
		t.Fatal("budget of half the full spend tripped no racer")
	}
	checkMemoConsistent(t, db, ev)
}
