// Package optimizer finds τ-optimum strategies within the subspaces that
// the paper's query optimizers search (Section 1):
//
//   - SpaceAll: every strategy — the full bushy space;
//   - SpaceLinear: linear strategies (GAMMA's space);
//   - SpaceNoCP: strategies that avoid Cartesian products in the paper's
//     extended sense (INGRES, Starburst);
//   - SpaceLinearNoCP: linear strategies that avoid Cartesian products
//     (System R, Office-by-Example).
//
// All four run as memoized dynamic programs over subsets of the database
// scheme: because τ is a sum of per-step result sizes and R_D′ depends
// only on the *set* D′ (joins commute and associate), the principle of
// optimality applies — the paper itself leans on it when it observes that
// substrategies of a τ-optimum strategy are τ-optimum.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// Space identifies a strategy subspace to search.
type Space int

const (
	// SpaceAll searches every strategy.
	SpaceAll Space = iota
	// SpaceLinear searches linear strategies only.
	SpaceLinear
	// SpaceNoCP searches strategies that avoid Cartesian products:
	// components evaluated individually, no product steps except the
	// comp(D)−1 mandatory ones combining components.
	SpaceNoCP
	// SpaceLinearNoCP searches linear strategies that avoid Cartesian
	// products. On some unconnected schemes this subspace is empty (two
	// multi-relation components cannot both appear as prefixes of one
	// linear tree); Optimize then returns ErrEmptySpace.
	SpaceLinearNoCP
	// SpaceGreedy labels results of the Greedy heuristic. It is not a
	// searched subspace — Greedy walks the full space heuristically — so
	// Optimize rejects it; the label exists so traces and reports never
	// present a heuristic result as a DP optimum.
	SpaceGreedy
	// SpaceExhaustive labels results of the Exhaustive reference
	// enumeration. Like SpaceGreedy it is a method label, not a
	// searchable subspace, and Optimize rejects it.
	SpaceExhaustive
	// SpaceYannakakis labels results of the acyclic fast path: a full
	// semijoin reduction along a GYO join tree followed by a bottom-up
	// join of the reduced relations (internal/semijoin). It is a method
	// label like SpaceGreedy — the join tree is derived from the scheme,
	// not searched — so Optimize rejects it.
	SpaceYannakakis
)

// String names the space.
func (s Space) String() string {
	switch s {
	case SpaceAll:
		return "all"
	case SpaceLinear:
		return "linear"
	case SpaceNoCP:
		return "no-cartesian"
	case SpaceLinearNoCP:
		return "linear-no-cartesian"
	case SpaceGreedy:
		return "greedy"
	case SpaceExhaustive:
		return "exhaustive"
	case SpaceYannakakis:
		return "yannakakis"
	}
	return fmt.Sprintf("Space(%d)", int(s))
}

// DPSpaces lists the four subspaces Optimize's dynamic program can
// search, in the canonical analysis order. The method labels
// SpaceGreedy and SpaceExhaustive are deliberately absent.
func DPSpaces() []Space {
	return []Space{SpaceAll, SpaceNoCP, SpaceLinear, SpaceLinearNoCP}
}

// ErrEmptySpace is returned when the requested subspace contains no
// strategy for the database (only possible for SpaceLinearNoCP on
// schemes with two or more multi-relation components).
var ErrEmptySpace = errors.New("optimizer: subspace contains no strategy for this scheme")

// Result is an optimization outcome.
type Result struct {
	Space    Space
	Strategy *strategy.Node
	Cost     int
	// States is the number of distinct DP states (subsets) examined — a
	// proxy for optimizer effort, used by the search-space experiments.
	States int
}

// Optimize returns a τ-optimum strategy within the given subspace.
//
// When the evaluator carries a guard.Guard, the search is governed: each
// DP state examined charges the state budget, each materialization
// charges the tuple/step budgets, and a trip or cancellation returns the
// guard's typed error (guard.Tripped reports it) instead of running on.
func Optimize(ev *database.Evaluator, space Space) (res Result, err error) {
	defer guard.Trap(&err)
	switch space {
	case SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP:
	default:
		// SpaceGreedy/SpaceExhaustive label how a result was obtained;
		// they are not subspaces the DP can search.
		return Result{}, fmt.Errorf("optimizer: %v is not a searchable subspace", space)
	}
	db := ev.Database()
	if err := db.Validate(); err != nil {
		return Result{}, err
	}
	rec := ev.Recorder()
	// The exact size model: τ measured by executing the join through the
	// memoized evaluator. Sums of exact integer sizes stay below 2^53 long
	// before any feasible budget, so the float64 DP core reproduces the
	// integer arithmetic bit for bit.
	size := func(s hypergraph.Set) float64 { return float64(ev.Size(s)) }
	o := newDP(db, size, ev.Guard(), rec, space, dpCounters(rec, space))
	defer rec.Timer(obs.MetricDPSpaceWall(space.String())).Start().Stop()
	all := db.All()
	cost := o.solve(all)
	if math.IsInf(cost, 1) {
		return Result{Space: space}, ErrEmptySpace
	}
	return Result{
		Space:    space,
		Strategy: o.build(all),
		Cost:     int(cost),
		States:   len(o.cost),
	}, nil
}

const inf = math.MaxInt

// dpCounters resolves the exact pipeline's per-subspace counters (the
// dp.<space>.* family reconciling with guard.ChargeStates).
func dpCounters(rec *obs.Recorder, space Space) [4]*obs.Counter {
	return [4]*obs.Counter{
		rec.Counter(obs.MetricDPSpaceStates(space.String())),
		rec.Counter(obs.MetricDPStates),
		rec.Counter(obs.MetricDPSpacePruned(space.String())),
		rec.Counter(obs.MetricDPSpaceCartesian(space.String())),
	}
}

// newDP builds the subset dynamic program over an arbitrary size model.
// counters carries the four resolved counters (per-space states, shared
// states ledger, pruned, cartesian), so the exact and the
// estimate-costed pipelines account under their own metric families.
func newDP(db *database.Database, size SizeModel, gd *guard.Guard, rec *obs.Recorder,
	space Space, counters [4]*obs.Counter) *dp {
	o := &dp{
		g:     db.Graph(),
		space: space,
		size:  size,
		gd:    gd,
		cost:  make(map[hypergraph.Set]float64),
		pick:  make(map[hypergraph.Set][2]hypergraph.Set),

		cStates:      counters[0],
		cStatesAll:   counters[1],
		cPruned:      counters[2],
		cCartesian:   counters[3],
		hasCartesian: rec != nil,
	}
	o.components = o.g.Components(o.g.All())
	o.compOf = make([]hypergraph.Set, db.Len())
	for _, c := range o.components {
		for _, i := range c.Indexes() {
			o.compOf[i] = c
		}
	}
	return o
}

// dp is the memoized subset dynamic program shared by all four spaces
// and both cost regimes: the exact pipeline plugs in the evaluator's
// measured τ, the planning pipeline an estimate.Catalog model. Costs are
// float64 throughout — exact integer τ sums are far below 2^53, so the
// exact pipeline's results are unchanged.
type dp struct {
	g          *hypergraph.Graph
	space      Space
	size       SizeModel
	gd         *guard.Guard
	components []hypergraph.Set
	compOf     []hypergraph.Set // relation index -> its component
	cost       map[hypergraph.Set]float64
	pick       map[hypergraph.Set][2]hypergraph.Set

	// Observability: subsets expanded (per-space and the shared
	// `dp.states` ledger reconciling with guard.ChargeStates), splits
	// pruned because a side admits no subtree, and Cartesian-product
	// steps considered. hasCartesian gates the per-split linkage probe
	// so uninstrumented searches skip it entirely.
	cStates      *obs.Counter
	cStatesAll   *obs.Counter
	cPruned      *obs.Counter
	cCartesian   *obs.Counter
	hasCartesian bool
}

// solve returns the cheapest subtree cost for the subset s within the
// space's constraints, or +Inf when no valid subtree exists.
func (o *dp) solve(s hypergraph.Set) float64 {
	if s.Len() == 1 {
		return 0
	}
	if c, ok := o.cost[s]; ok {
		return c
	}
	// Mirror before charging, like the evaluator: a charge that trips
	// the budget is counted by the guard, so the ledger must count it
	// too for the two to reconcile on truncated runs.
	o.cStates.Inc()
	o.cStatesAll.Inc()
	guard.Must(o.gd.ChargeStates(1))
	best := math.Inf(1)
	o.cost[s] = best // guard against re-entry; overwritten below
	var bestSplit [2]hypergraph.Set
	// τ(R_s) is the same for every split, so the size model is asked
	// once, on the first split whose sides both admit a subtree (a
	// subset with no such split is never sized).
	sz, sized := 0.0, false

	consider := func(a, b hypergraph.Set) {
		if o.hasCartesian && !o.g.Linked(a, b) {
			o.cCartesian.Inc()
		}
		ca := o.solve(a)
		if math.IsInf(ca, 1) {
			o.cPruned.Inc()
			return
		}
		cb := o.solve(b)
		if math.IsInf(cb, 1) {
			o.cPruned.Inc()
			return
		}
		if !sized {
			sz, sized = o.size(s), true
		}
		total := ca + cb + sz
		if total < best {
			best = total
			bestSplit = [2]hypergraph.Set{a, b}
		}
	}

	switch o.space {
	case SpaceAll:
		s.ProperSubsetPairs(func(a, b hypergraph.Set) bool {
			consider(a, b)
			return true
		})
	case SpaceLinear:
		for _, i := range s.Indexes() {
			rest := s.Remove(i)
			consider(rest, hypergraph.Singleton(i))
		}
	case SpaceNoCP:
		if s.SubsetOf(o.compOf[s.First()]) {
			// Within one component: genuine joins only — enumerate the
			// connected/connected splits directly (csg/cmp pairs), which
			// is output-sensitive instead of 2^|s| on sparse schemes.
			o.g.ConnectedSplits(s, func(a, b hypergraph.Set) bool {
				consider(a, b)
				return true
			})
		} else {
			// Across components: both sides must be exact component
			// unions; enumerate splits of the component-index mask.
			comps := o.componentsOf(s)
			mask := hypergraph.Full(len(comps))
			mask.ProperSubsetPairs(func(am, bm hypergraph.Set) bool {
				var a, b hypergraph.Set
				for _, i := range am.Indexes() {
					a = a.Union(comps[i])
				}
				for _, i := range bm.Indexes() {
					b = b.Union(comps[i])
				}
				consider(a, b)
				return true
			})
		}
	case SpaceLinearNoCP:
		for _, i := range s.Indexes() {
			rest := s.Remove(i)
			leaf := hypergraph.Singleton(i)
			if o.allowedNoCP(s, rest, leaf) {
				consider(rest, leaf)
			}
		}
	}
	o.cost[s] = best
	if !math.IsInf(best, 1) {
		o.pick[s] = bestSplit
	}
	return best
}

// allowedNoCP reports whether the split s = a ⊎ b is permitted in a
// strategy that avoids Cartesian products: inside a component both parts
// must be connected (so the step is a genuine join); across components
// both parts must be exact unions of components (so each component is
// evaluated individually before any mandatory product).
func (o *dp) allowedNoCP(s, a, b hypergraph.Set) bool {
	if s.SubsetOf(o.compOf[s.First()]) {
		return o.g.Connected(a) && o.g.Connected(b)
	}
	return o.isComponentUnion(a) && o.isComponentUnion(b)
}

// componentsOf returns the scheme components making up s (s must be a
// union of components, as avoid-CP DP states above component level are).
func (o *dp) componentsOf(s hypergraph.Set) []hypergraph.Set {
	var out []hypergraph.Set
	for rest := s; rest != 0; {
		c := o.compOf[rest.First()]
		out = append(out, c)
		rest = rest.Minus(c)
	}
	return out
}

// isComponentUnion reports whether x is an exact union of scheme
// components.
func (o *dp) isComponentUnion(x hypergraph.Set) bool {
	var u hypergraph.Set
	for rest := x; rest != 0; {
		c := o.compOf[rest.First()]
		u = u.Union(c)
		rest = rest.Minus(c)
	}
	return u == x
}

// build reconstructs the optimal tree for s from the pick table.
func (o *dp) build(s hypergraph.Set) *strategy.Node {
	if s.Len() == 1 {
		return strategy.Leaf(s.First())
	}
	split := o.pick[s]
	return strategy.Combine(o.build(split[0]), o.build(split[1]))
}

// greedyCand is one candidate pair of the greedy probe loop, carrying
// everything the tie-break needs. The zero value (ok=false) loses to
// every real candidate. Sizes are float64 so the exact probe (integer
// τ, compared exactly — ints this small are float64-representable) and
// the estimate-model probe share the loop.
type greedyCand struct {
	i, j   int
	size   float64
	linked bool
	ok     bool
}

// better reports whether c beats o under the documented tie-break
// order: smaller join first, then linked pairs over unlinked, then the
// lexicographically lowest (i, j). The order is total, so a parallel
// reduction over any partition of the pair space picks the same winner
// as the sequential scan.
func (c greedyCand) better(o greedyCand) bool {
	if !c.ok || !o.ok {
		return c.ok
	}
	if c.size != o.size {
		return c.size < o.size
	}
	if c.linked != o.linked {
		return c.linked
	}
	if c.i != o.i {
		return c.i < o.i
	}
	return c.j < o.j
}

// greedyParallelMinPairs is the pair-space size below which the probe
// loop stays sequential: spawning workers for a handful of memoized
// size lookups costs more than it saves.
const greedyParallelMinPairs = 32

// Greedy returns the strategy produced by the classic smallest-result
// heuristic: repeatedly replace the pair of current results whose join is
// smallest (ties broken toward linked pairs, then lower indexes). It is
// the cheap baseline the paper's optimizers compete with; it inspects
// O(n³) joins and offers no optimality guarantee.
//
// On pools large enough to matter the O(n²) probe loop of each round
// fans out over row-chunks of the pair space — the evaluator is safe
// for concurrent use, so workers probe sizes in parallel — and the
// per-worker minima are reduced under the same total order the
// sequential scan uses, so the chosen strategy is identical either way.
func Greedy(ev *database.Evaluator) Result {
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cStates := rec.Counter(obs.MetricGreedyStates)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricGreedyWall).Start().Stop()
	g := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	// probe charges and inspects the pair (i, j) of the current pool.
	// Counters and the guard are concurrency-safe, so workers share it.
	probe := func(i, j int) greedyCand {
		cStates.Inc()
		cStatesAll.Inc() // before the charge, so a trip still reconciles
		guard.Must(gd.ChargeStates(1))
		a, b := pool[i].Set(), pool[j].Set()
		return greedyCand{
			i: i, j: j,
			size:   float64(ev.Size(a.Union(b))),
			linked: g.Linked(a, b),
			ok:     true,
		}
	}
	states := 0
	for len(pool) > 1 {
		pairs := len(pool) * (len(pool) - 1) / 2
		states += pairs
		var best greedyCand
		workers := runtime.GOMAXPROCS(0)
		if pairs < greedyParallelMinPairs || workers == 1 {
			for i := 0; i < len(pool); i++ {
				for j := i + 1; j < len(pool); j++ {
					if c := probe(i, j); c.better(best) {
						best = c
					}
				}
			}
		} else {
			if workers > len(pool) {
				workers = len(pool)
			}
			cands := make([]greedyCand, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Panic boundary: a guard abort raised inside probe
					// must not kill the process from a worker; it is
					// re-raised on the caller's goroutine below.
					defer func() {
						if err := guard.Recovered(recover()); err != nil {
							errs[w] = err
						}
					}()
					var local greedyCand
					// Interleaved rows balance the triangular pair
					// space: row i holds len(pool)−i−1 pairs.
					for i := w; i < len(pool); i += workers {
						for j := i + 1; j < len(pool); j++ {
							if c := probe(i, j); c.better(local) {
								local = c
							}
						}
					}
					cands[w] = local
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				guard.Must(err)
			}
			for _, c := range cands {
				if c.better(best) {
					best = c
				}
			}
		}
		joined := strategy.Combine(pool[best.i], pool[best.j])
		pool[best.j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		pool[best.i] = joined
	}
	root := pool[0]
	return Result{Space: SpaceGreedy, Strategy: root, Cost: root.Cost(ev), States: states}
}

// Exhaustive finds a τ-optimum strategy by enumerating the entire space —
// the reference implementation the DPs are validated against in tests.
// It is usable only for small databases ((2n−3)!! strategies).
//
// Every enumerated strategy charges one state against the evaluator's
// guard, so a -max-states budget bounds the (2n−3)!! enumeration itself
// rather than only the tuple spend of the costings inside it.
func Exhaustive(ev *database.Evaluator) Result {
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cEnum := rec.Counter(obs.MetricExhaustiveStrategies)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricExhaustiveWall).Start().Stop()
	best := inf
	var bestNode *strategy.Node
	count := 0
	strategy.EnumerateAll(db.All(), func(n *strategy.Node) bool {
		count++
		cEnum.Inc()
		cStatesAll.Inc() // before the charge, so a trip still reconciles
		guard.Must(gd.ChargeStates(1))
		if c := n.Cost(ev); c < best {
			best, bestNode = c, n
		}
		return true
	})
	return Result{Space: SpaceExhaustive, Strategy: bestNode, Cost: best, States: count}
}

// GreedyGuarded is Greedy with the evaluator's resource guard trapped:
// a budget trip or cancellation surfaces as the guard's typed error
// instead of unwinding through the caller. It is the last rung of the
// CLI's degradation ladder (exhaustive → DP → greedy).
func GreedyGuarded(ev *database.Evaluator) (res Result, err error) {
	defer guard.Trap(&err)
	return Greedy(ev), nil
}

// ExhaustiveGuarded is Exhaustive with the evaluator's resource guard
// trapped, for callers that need the reference enumeration to fail soft.
func ExhaustiveGuarded(ev *database.Evaluator) (res Result, err error) {
	defer guard.Trap(&err)
	return Exhaustive(ev), nil
}

// Systems names the production optimizers the paper's Section 1 places
// in each subspace: GAMMA searches linear strategies, INGRES and
// Starburst avoid Cartesian products, System R and Office-by-Example use
// linear strategies that avoid Cartesian products. SpaceAll is the
// unrestricted reference space.
func (s Space) Systems() []string {
	switch s {
	case SpaceLinear:
		return []string{"GAMMA"}
	case SpaceNoCP:
		return []string{"INGRES", "Starburst"}
	case SpaceLinearNoCP:
		return []string{"System R", "Office-by-Example"}
	}
	return nil
}
