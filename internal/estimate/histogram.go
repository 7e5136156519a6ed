package estimate

import (
	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// HistogramCatalog refines the plain Catalog with exact per-attribute
// value frequencies (full-resolution histograms). Joins on a single
// shared attribute are then estimated by matching frequencies —
// Σ_v f_R(v)·f_S(v) — which is exact for two-relation single-attribute
// joins; independence is still assumed *across* attributes and across
// join predicates, so multiway and multi-attribute estimates remain
// approximations. The E-estimate ablation uses this to show how much of
// the regret better statistics recover, and how much is inherent to the
// independence assumption the paper distrusts.
//
// The histograms are never stored: each pairwise match count depends
// only on (attribute, relation j, relation i), so construction counts
// every one once, straight off the ID slabs, and Size only multiplies
// entries of the resulting selectivity table.
//
// Like Catalog, a HistogramCatalog is not safe for concurrent use: Size
// reuses per-catalog scratch buffers.
type HistogramCatalog struct {
	*Catalog
	// sel[i][k][j], for j < i both carrying relation i's k-th attribute
	// (universe position relAttrs[i][k]), is the selectivity of the
	// equi-join predicate on that attribute between relations j and i:
	// Σ_v f_j(v)·f_i(v) / (|R_j|·|R_i|). sel[i][k] is nil when no
	// earlier relation carries the attribute.
	sel [][][]float64
	// seenBy is Size's scratch: seenBy[pos] is the relation already
	// providing the attribute at pos, or -1.
	seenBy []int
}

// NewHistogramCatalog gathers the pairwise histogram matches from the
// database: one relation.MatchCount per attribute and pair of relations
// carrying it.
func NewHistogramCatalog(db *database.Database) *HistogramCatalog {
	h := &HistogramCatalog{
		Catalog: NewCatalog(db),
		sel:     make([][][]float64, db.Len()),
	}
	// carriers[pos] lists the (relation, column) pairs seen so far that
	// carry the attribute at universe position pos.
	type carrier struct{ rel, col int }
	carriers := make([][]carrier, len(h.attrs))
	for i := 0; i < db.Len(); i++ {
		h.sel[i] = make([][]float64, len(h.relAttrs[i]))
		for col, pos := range h.relAttrs[i] {
			if len(carriers[pos]) > 0 {
				row := make([]float64, i)
				for _, c := range carriers[pos] {
					row[c.rel] = h.pairSelectivity(c.rel, c.col, i, col)
				}
				h.sel[i][col] = row
			}
			carriers[pos] = append(carriers[pos], carrier{i, col})
		}
	}
	h.seenBy = make([]int, len(h.attrs))
	for pos := range h.seenBy {
		h.seenBy[pos] = -1
	}
	return h
}

// pairSelectivity is the selectivity of the equi-join predicate between
// column cj of relation j and column ci of relation i. The match count
// is an exact integer, so the selectivity does not depend on the order
// in which the frequency products are summed.
func (h *HistogramCatalog) pairSelectivity(j, cj, i, ci int) float64 {
	if h.card[j] == 0 || h.card[i] == 0 {
		return 0
	}
	match := relation.MatchCount(h.db.Relation(j), cj, h.db.Relation(i), ci)
	return float64(match) / (h.card[j] * h.card[i])
}

// Size estimates τ(R_S) by folding relations into the subset in
// ascending index order: starting from the first relation's
// cardinality, each further relation contributes a factor
//
//	|R_i| · Π_{A shared} sel(A)
//
// where sel(A) for the single new predicate on A is estimated from the
// two histograms as Σ_v f₁(v)·f₂(v) / (|R₁|·|R₂|) — the exact
// selectivity of that pairwise predicate — with independence assumed
// between predicates. Better than uniform 1/maxDistinct, still not τ.
// Each factor is a lookup in the precomputed selectivity table; the
// fixed fold order makes the float product deterministic, and the hot
// path allocates nothing.
func (h *HistogramCatalog) Size(s hypergraph.Set) float64 {
	if s.Empty() {
		return 0
	}
	h.touched = h.touched[:0]
	first := s.First()
	est := h.card[first]
	for _, pos := range h.relAttrs[first] {
		h.seenBy[pos] = first
		h.touched = append(h.touched, pos)
	}
	for rest := s.Remove(first); !rest.Empty(); {
		i := rest.First()
		rest = rest.Remove(i)
		est *= h.card[i]
		for k, pos := range h.relAttrs[i] {
			// The provider stays the first relation carrying the attribute,
			// matching the uniform model's max-distinct anchor.
			if j := h.seenBy[pos]; j >= 0 {
				est *= h.sel[i][k][j]
			} else {
				h.seenBy[pos] = i
				h.touched = append(h.touched, pos)
			}
		}
	}
	for _, pos := range h.touched {
		h.seenBy[pos] = -1
	}
	return est
}

// Cost estimates τ(S) for a strategy under the histogram model.
func (h *HistogramCatalog) Cost(n *strategy.Node) float64 {
	total := 0.0
	for _, step := range n.Steps() {
		total += h.Size(step.Set())
	}
	return total
}

// Optimize finds the strategy minimizing the histogram-estimated τ.
func (h *HistogramCatalog) Optimize() *strategy.Node {
	return optimizeBySize(h.db, h.Size)
}
