package database

import (
	"sync"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// Evaluator materializes R_D′ = ⋈_{R ∈ D′} R for subsets D′ of a
// database's scheme, memoizing results. Because the natural join is
// commutative and associative, R_D′ is well defined independently of
// order (§2), so one materialization per subset serves every strategy,
// condition check, and dynamic-programming state that mentions it.
//
// A subset is materialized once, on its first memo miss, as the join of
// two memoized parts. EvalJoin names the parts — a strategy step passes
// its own children, so executing a plan builds exactly the plan's
// intermediate results. Eval lets the evaluator pick them (split): a
// connected subset splits off the lowest-index relation whose removal
// leaves the rest connected, and an unconnected one splits into its
// first component and the rest, so the only Cartesian products built
// are those the subset itself requires. Computing all 2^n subsets costs
// 2^n joins in total.
//
// Before building a Cartesian step under a tuple budget, the evaluator
// checks the output size |A|·|B|, known exactly beforehand, against the
// budget's remainder and trips without building, charging or memoizing
// anything when it would not fit.
//
// An Evaluator is safe for concurrent use. The memo is striped across
// memoShardCount RWMutex-guarded shards keyed on a hash of the subset
// bitmask, so readers of distinct subsets rarely contend, and each
// shard carries a per-subset in-flight latch: when two goroutines miss
// on the same subset simultaneously, one computes the join while the
// others block on the latch and then read the memoized result, so every
// subset is materialized (and charged) exactly once however many
// searchers race on it. The parallel subspace DPs of core.Analyze* and
// the parallel prewarmer both lean on this.
//
// An Evaluator may carry a guard.Guard (WithGuard), in which case every
// materialization charges the guard's tuple/state/step budgets and every
// evaluation — memo hit or not — polls its context. A tripped guard
// unwinds via guard.Abort; the public entry points of the optimizer,
// core and cli packages trap the abort and surface it as a typed error.
type Evaluator struct {
	db     *Database
	shards [memoShardCount]memoShard
	guard  *guard.Guard
	rec    *obs.Recorder

	// Metric handles resolved once at attach time so the hot path pays
	// an atomic add, not a registry lookup; all are the nil no-op
	// handles when no recorder is attached.
	cMemoHits      *obs.Counter
	cMemoMisses    *obs.Counter
	cInflightWaits *obs.Counter
	cTuples        *obs.Counter
	cStates        *obs.Counter
	cSteps         *obs.Counter
	cJoinParts     *obs.Counter
	gIntern        *obs.Gauge
}

// memoShardCount is the number of memo stripes. A power of two well
// above typical core counts keeps both lock contention and the latch
// maps' per-shard footprint small.
const memoShardCount = 64

// memoShard is one stripe of the evaluator's memo: the materialized
// subsets hashing to this stripe plus the in-flight latches for subsets
// currently being computed.
type memoShard struct {
	mu       sync.RWMutex
	rels     map[hypergraph.Set]*relation.Relation
	inflight map[hypergraph.Set]chan struct{}
}

// shard returns the stripe responsible for subset s. The bitmask is
// mixed with a Fibonacci-hashing constant so that the dense low-bit
// subsets the DPs enumerate spread over all stripes.
func (e *Evaluator) shard(s hypergraph.Set) *memoShard {
	h := uint64(s) * 0x9E3779B97F4A7C15
	return &e.shards[h>>(64-6)] // top 6 bits index 64 shards
}

// NewEvaluator creates an evaluator for the database.
func NewEvaluator(db *Database) *Evaluator {
	e := &Evaluator{db: db}
	for i := range e.shards {
		e.shards[i].rels = make(map[hypergraph.Set]*relation.Relation)
		e.shards[i].inflight = make(map[hypergraph.Set]chan struct{})
	}
	return e
}

// WithGuard attaches a resource guard to the evaluator and returns it.
// A nil guard detaches governance.
func (e *Evaluator) WithGuard(g *guard.Guard) *Evaluator {
	e.guard = g
	return e
}

// Guard returns the evaluator's resource guard (nil when ungoverned).
func (e *Evaluator) Guard() *guard.Guard { return e.guard }

// WithRecorder attaches an observability recorder and returns the
// evaluator. Every materialization then counts into `eval.tuples` (the
// running τ ledger), `eval.states` and `eval.steps` — the same
// quantities, charged at the same points, as guard.Guard's budgets, so
// the metrics reconcile exactly with guard.Snapshot() — and memo
// traffic counts into `eval.memo.hits`/`eval.memo.misses`, with
// `eval.inflight.waits` counting the evaluations that blocked on
// another goroutine's in-flight computation of the same subset instead
// of duplicating it. The dictionary-encoded kernel reports through two
// further handles:
// `join.partitions` accumulates the hash-partition count of every join
// that took the parallel path (sequential joins contribute 0, so the
// counter divided by the fixed partition count is the number of
// parallel joins), and
// the `eval.intern.values` gauge tracks how many distinct values the
// result dictionary holds. A nil recorder detaches instrumentation.
func (e *Evaluator) WithRecorder(rec *obs.Recorder) *Evaluator {
	e.rec = rec
	e.cMemoHits = rec.Counter(obs.MetricEvalMemoHits)
	e.cMemoMisses = rec.Counter(obs.MetricEvalMemoMisses)
	e.cInflightWaits = rec.Counter(obs.MetricEvalInflightWaits)
	e.cTuples = rec.Counter(obs.MetricEvalTuples)
	e.cStates = rec.Counter(obs.MetricEvalStates)
	e.cSteps = rec.Counter(obs.MetricEvalSteps)
	e.cJoinParts = rec.Counter(obs.MetricJoinPartitions)
	e.gIntern = rec.Gauge(obs.MetricEvalInternValues)
	return e
}

// Recorder returns the evaluator's observability recorder (nil when
// uninstrumented). The optimizers and tracers read it so one attachment
// point instruments the whole evaluation stack.
func (e *Evaluator) Recorder() *obs.Recorder { return e.rec }

// Database returns the underlying database.
func (e *Evaluator) Database() *Database { return e.db }

// Eval returns R_D′ for the subset s. It panics on the empty set, for
// which R_D′ is undefined in the model. On a memo miss it materializes
// s from the split the evaluator picks (see split).
//
// Concurrent calls on the same subset compute the join once: the first
// caller to miss installs an in-flight latch and materializes, later
// callers block on the latch and then take the memo hit. If the
// computing goroutine aborts (guard trip) after memoizing, waiters
// still get the result free of charge — exactly what a sequential
// re-Eval after a trip would see.
func (e *Evaluator) Eval(s hypergraph.Set) *relation.Relation {
	if s.Empty() {
		panic("database: Eval of empty subset")
	}
	return e.eval(s, 0)
}

// EvalJoin returns R_{a∪b} for disjoint nonempty subsets a and b. On a
// memo miss it materializes R_{a∪b} as Eval(a) ⋈ Eval(b) — the step a
// strategy node with children a and b performs — with the same
// in-flight latch, guard charge and metrics as Eval. On a hit the
// memoized state is returned whichever split built it: the join is
// commutative and associative, so the state is the same (§2).
func (e *Evaluator) EvalJoin(a, b hypergraph.Set) *relation.Relation {
	if a.Empty() || b.Empty() || !a.Disjoint(b) {
		panic("database: EvalJoin of empty or overlapping subsets")
	}
	return e.eval(a.Union(b), a)
}

// eval returns R_s, materializing it on a miss from the parts left and
// s − left; a zero left lets split pick them.
func (e *Evaluator) eval(s, left hypergraph.Set) *relation.Relation {
	sh := e.shard(s)
	for {
		if e.guard != nil {
			// Cheap cancellation poll: memo hits dominate the enumeration
			// and DP hot loops, and this is what keeps them interruptible.
			guard.Must(e.guard.Tick())
		}
		sh.mu.RLock()
		r, ok := sh.rels[s]
		sh.mu.RUnlock()
		if ok {
			e.cMemoHits.Inc()
			return r
		}
		sh.mu.Lock()
		if r, ok := sh.rels[s]; ok {
			sh.mu.Unlock()
			e.cMemoHits.Inc()
			return r
		}
		if latch, ok := sh.inflight[s]; ok {
			sh.mu.Unlock()
			e.cInflightWaits.Inc()
			// The computer releases the latch on every path — success,
			// guard abort, even a join panic — so this cannot block
			// forever. Loop back: the memo usually holds the result now;
			// if the computer died before memoizing, this caller takes
			// over the computation.
			<-latch
			continue
		}
		latch := make(chan struct{})
		sh.inflight[s] = latch
		sh.mu.Unlock()
		return e.compute(sh, s, left, latch)
	}
}

// compute materializes the subset s as R_left ⋈ R_{s−left}, holding its
// in-flight latch. The latch is released on every exit path, including
// a guard abort unwinding through the charge, so waiters never
// deadlock.
func (e *Evaluator) compute(sh *memoShard, s, left hypergraph.Set, latch chan struct{}) *relation.Relation {
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, s)
		sh.mu.Unlock()
		close(latch)
	}()
	e.cMemoMisses.Inc()
	var result *relation.Relation
	if s.Len() == 1 {
		result = e.db.Relation(s.First())
	} else {
		if left == 0 {
			left = split(e.db.graph, s)
		}
		right := s.Minus(left)
		l, r := e.Eval(left), e.Eval(right)
		if e.guard != nil && !e.db.graph.Linked(left, right) {
			// A Cartesian step's output size is |A|·|B|, known before
			// the join: trip now rather than build what the budget
			// cannot pay for.
			guard.Must(e.guard.AdmitTuples(int64(l.Size()) * int64(r.Size())))
		}
		result = relation.Join(l, r)
	}
	// Memoize before charging: the work is done either way, and a warm
	// memo lets a degradation fallback reuse it free of charge.
	sh.mu.Lock()
	sh.rels[s] = result
	sh.mu.Unlock()
	if s.Len() > 1 {
		// Count before the charge can abort, mirroring the guard's
		// ledger semantics: spend reflects work actually performed.
		e.cTuples.Add(int64(result.Size()))
		e.cStates.Inc()
		e.cSteps.Inc()
		e.cJoinParts.Add(int64(result.JoinPartitions()))
		e.gIntern.Set(int64(result.Dict().Len()))
		if e.guard != nil {
			guard.Must(e.guard.ChargeEval(result.Size()))
		}
	}
	return result
}

// split returns the left part of the split the evaluator uses for a
// subset s of at least two relations when no plan names one; the right
// part is s minus it. A connected s splits off the lowest-index
// relation whose removal leaves the rest connected — a leaf of any
// spanning tree of s qualifies, so one always exists. An unconnected s
// splits into its first component and the rest. Either way every part
// built is connected or a union of whole components, so the only
// Cartesian products materialized are those s itself requires.
func split(g *hypergraph.Graph, s hypergraph.Set) hypergraph.Set {
	if c := g.Component(s); c != s {
		return s.Minus(c)
	}
	for t := s; t != 0; t &= t - 1 {
		rest := s.Remove(t.First())
		if g.Connected(rest) {
			return rest
		}
	}
	panic("database: connected subset without a removable relation")
}

// memoGet returns the memoized relation for s, if present, without
// counting memo traffic — the prewarmer's read path.
func (e *Evaluator) memoGet(s hypergraph.Set) (*relation.Relation, bool) {
	sh := e.shard(s)
	sh.mu.RLock()
	r, ok := sh.rels[s]
	sh.mu.RUnlock()
	return r, ok
}

// memoPut stores a fully materialized (and, when governed, fully
// charged) relation for s — the prewarmer's write path. Concurrent
// writers of distinct subsets land on distinct shard locks.
func (e *Evaluator) memoPut(s hypergraph.Set, r *relation.Relation) {
	sh := e.shard(s)
	sh.mu.Lock()
	sh.rels[s] = r
	sh.mu.Unlock()
}

// memoRange calls fn for every memoized subset until fn returns false.
// It visits shard by shard under the read locks; tests and diagnostics
// use it, the hot paths never do.
func (e *Evaluator) memoRange(fn func(hypergraph.Set, *relation.Relation) bool) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for s, r := range sh.rels {
			if !fn(s, r) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Size returns τ(R_D′) for the subset s: the number of tuples in the
// join of the selected states.
func (e *Evaluator) Size(s hypergraph.Set) int { return e.Eval(s).Size() }

// JoinSize returns τ(R_a ⋈ R_b) for disjoint subsets a and b — which by
// definition equals τ(R_{a∪b}).
func (e *Evaluator) JoinSize(a, b hypergraph.Set) int {
	if !a.Disjoint(b) {
		panic("database: JoinSize of overlapping subsets")
	}
	return e.Size(a.Union(b))
}

// Result returns R_D, the final result of evaluating the full database.
func (e *Evaluator) Result() *relation.Relation { return e.Eval(e.db.All()) }

// ResultNonEmpty reports the paper's standing hypothesis R_D ≠ ∅.
func (e *Evaluator) ResultNonEmpty() bool { return !e.Result().Empty() }

// MemoLen reports how many subsets have been materialized, for tests and
// instrumentation.
func (e *Evaluator) MemoLen() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		n += len(sh.rels)
		sh.mu.RUnlock()
	}
	return n
}
