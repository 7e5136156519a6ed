package database

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// PrewarmConnected materializes R_D′ for every connected subset D′ of the
// database scheme using a pool of workers, and returns an Evaluator whose
// memo is already populated with those states. The subsequent
// Cartesian-product-free dynamic programs and the condition checkers then
// run entirely against the warm memo.
//
// The computation proceeds level by level over subset cardinality: all
// subsets of size k join one relation onto an already-materialized subset
// of size k−1, so the levels form a dependency-free frontier that
// parallelizes cleanly. Joins commute and associate, so whichever
// decomposition a worker uses yields the same state (§2).
//
// The paper motivates its cost measure partly by parallel machines
// (Section 1); this is the corresponding knob in the reproduction: τ is
// unchanged, only wall-clock materialization time drops.
//
// workers ≤ 0 selects GOMAXPROCS. The returned evaluator is, like any
// Evaluator, safe for concurrent use: its warm memo shards serve the
// parallel subspace DPs of core.Analyze* directly.
func PrewarmConnected(db *Database, workers int) *Evaluator {
	ev, _ := PrewarmConnectedGuarded(db, workers, nil)
	return ev
}

// PrewarmConnectedGuarded is PrewarmConnected under resource governance:
// every join charges the guard, and a tripped budget, a context
// cancellation or an injected fault stops the computation at the current
// level. It never leaks workers — the level's goroutines are joined
// before returning — and on error the returned evaluator's memo is still
// consistent: it contains exactly the states whose joins completed and
// were charged, each a correct materialization usable by fallbacks.
//
// A nil guard makes it equivalent to PrewarmConnected.
func PrewarmConnectedGuarded(db *Database, workers int, g *guard.Guard) (*Evaluator, error) {
	return PrewarmConnectedObserved(db, workers, g, nil)
}

// PrewarmConnectedObserved is PrewarmConnectedGuarded with observability:
// the recorder (nil-safe) receives per-level begin/end events carrying
// the subset cardinality and tuples materialized, wall time per level
// under the `prewarm.level` timer, per-join busy time under
// `prewarm.worker.busy` (busy/(wall×workers) is worker utilization),
// and counters for jobs, states and the τ ledger mirroring the guard's
// charges. The returned evaluator carries both the guard and the
// recorder.
func PrewarmConnectedObserved(db *Database, workers int, g *guard.Guard, rec *obs.Recorder) (*Evaluator, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	graph := db.Graph()

	rec.Gauge(obs.MetricPrewarmWorkers).Set(int64(workers))
	cJobs := rec.Counter(obs.MetricPrewarmJobs)
	cLevels := rec.Counter(obs.MetricPrewarmLevels)
	tLevel := rec.Timer(obs.MetricPrewarmLevelWall)
	tBusy := rec.Timer(obs.MetricPrewarmWorkerBusy)

	// Group connected subsets by cardinality.
	levels := make([][]hypergraph.Set, db.Len()+1)
	graph.ConnectedSubsetsOf(db.All(), func(s hypergraph.Set) bool {
		levels[s.Len()] = append(levels[s.Len()], s)
		return true
	})

	// Seed level 1 (base relations are free).
	for _, s := range levels[1] {
		ev.memoPut(s, db.Relation(s.First()))
	}

	for k := 2; k <= db.Len(); k++ {
		level := levels[k]
		if len(level) == 0 {
			continue
		}
		cLevels.Inc()
		rec.Emit(obs.Event{Kind: "begin", Name: "prewarm.level." + strconv.Itoa(k),
			Subset: k})
		levelWatch := tLevel.Start()
		var levelTuples atomic.Int64
		// Resolve each subset's decomposition against the previous
		// level before the workers start: a connected subset splits off
		// one relation and keeps a connected size-(k−1) rest (split),
		// which is already memoized, so the lookups cannot miss.
		type job struct {
			set         hypergraph.Set
			left, right *relation.Relation
		}
		prepared := make([]job, 0, len(level))
		for _, s := range level {
			rest := split(graph, s)
			left, _ := ev.memoGet(rest)
			right, _ := ev.memoGet(s.Minus(rest))
			prepared = append(prepared, job{set: s, left: left, right: right})
		}
		// A buffered job channel sized to the level: the feeder cannot
		// block, workers cannot block, so no goroutine can outlive the
		// level whatever order the abort arrives in. Completed joins go
		// straight into the evaluator's sharded memo — the same shards
		// the parallel subspace DPs later read.
		jobs := make(chan job, len(prepared))
		for _, j := range prepared {
			jobs <- j
		}
		close(jobs)
		errs := make(chan error, workers)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Panic boundary: a worker panic (a relation invariant
				// violation reached by malformed input) must stop the
				// level and surface on errs, not kill the process. The
				// handler is registered after wg.Done so it runs before
				// it on unwind — the send completes while the waiter
				// still holds the channel open.
				defer func() {
					if err := guard.Recovered(recover()); err != nil {
						stop.Store(true)
						errs <- err
					}
				}()
				for j := range jobs {
					if stop.Load() {
						continue // drain the remaining jobs cheaply
					}
					busy := tBusy.Start()
					rel := relation.Join(j.left, j.right)
					busy.Stop()
					// Mirror the guard's ledger into the evaluator's
					// metrics before the charge can trip, so spend
					// reflects work actually performed (counters are
					// atomic; workers share them safely).
					cJobs.Inc()
					ev.cTuples.Add(int64(rel.Size()))
					ev.cStates.Inc()
					ev.cSteps.Inc()
					ev.cJoinParts.Add(int64(rel.JoinPartitions()))
					ev.gIntern.Set(int64(rel.Dict().Len()))
					levelTuples.Add(int64(rel.Size()))
					if err := g.ChargeEval(rel.Size()); err != nil {
						stop.Store(true)
						errs <- err
						continue
					}
					// Only fully-charged joins enter the memo, so it
					// stays consistent even when the level is cut short.
					ev.memoPut(j.set, rel)
				}
			}()
		}
		wg.Wait()
		close(errs)
		err := <-errs
		e := obs.Event{Kind: "end", Name: "prewarm.level." + strconv.Itoa(k),
			Subset: k, Tuples: levelTuples.Load(), DurNS: levelWatch.Stop().Nanoseconds()}
		if err != nil {
			e.Err = err.Error()
		}
		rec.Emit(e)
		if err != nil {
			return ev, err
		}
	}
	return ev, nil
}
