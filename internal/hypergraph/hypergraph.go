package hypergraph

import (
	"multijoin/internal/relation"
)

// Graph is a database scheme viewed as a hypergraph: the relation schemes
// are nodes, and two nodes are adjacent ("linked") iff their schemes
// share an attribute. A Graph precomputes the pairwise adjacency so the
// exponential subset queries issued by the condition checkers and
// optimizers are O(|subset|) bit operations.
type Graph struct {
	schemes []relation.Schema
	// adj[i] is the set of scheme indexes linked to scheme i (excluding i
	// itself unless a scheme repeats attributes with itself, which it
	// trivially does; we exclude i for cleanliness).
	adj []Set
}

// New builds a Graph over the given relation schemes.
func New(schemes []relation.Schema) *Graph {
	if len(schemes) > MaxRelations {
		panic("hypergraph: too many relation schemes")
	}
	g := &Graph{
		schemes: schemes,
		adj:     make([]Set, len(schemes)),
	}
	for i := range schemes {
		for j := i + 1; j < len(schemes); j++ {
			if schemes[i].Overlaps(schemes[j]) {
				g.adj[i] = g.adj[i].Add(j)
				g.adj[j] = g.adj[j].Add(i)
			}
		}
	}
	return g
}

// Len returns the number of relation schemes.
func (g *Graph) Len() int { return len(g.schemes) }

// Schemes returns the underlying relation schemes. The caller must not
// modify the returned slice.
func (g *Graph) Schemes() []relation.Schema { return g.schemes }

// Scheme returns the i-th relation scheme.
func (g *Graph) Scheme(i int) relation.Schema { return g.schemes[i] }

// All returns the full set of scheme indexes.
func (g *Graph) All() Set { return Full(len(g.schemes)) }

// Attrs returns ∪D' for the sub-scheme selected by s: the union of the
// attributes of the selected relation schemes.
func (g *Graph) Attrs(s Set) relation.Schema {
	var out relation.Schema
	for _, i := range s.Indexes() {
		out = out.Union(g.schemes[i])
	}
	return out
}

// Neighbors returns the set of scheme indexes linked to any scheme in s,
// excluding s itself.
func (g *Graph) Neighbors(s Set) Set {
	var out Set
	for t := s; t != 0; t &= t - 1 {
		out |= g.adj[t.First()]
	}
	return out &^ s
}

// Linked reports whether sub-schemes a and b are linked: (∪a) ∩ (∪b) ≠ ∅.
// Note the paper's definition is about shared *attributes*, which for
// distinct schemes coincides with pairwise adjacency between some member
// of a and some member of b.
func (g *Graph) Linked(a, b Set) bool {
	for t := a; t != 0; t &= t - 1 {
		if g.adj[t.First()]&b != 0 {
			return true
		}
	}
	return false
}

// Connected reports whether the sub-scheme s is connected: it cannot be
// written as the union of two nonempty parts not linked to each other.
// The empty set is vacuously unconnected; a singleton is connected.
func (g *Graph) Connected(s Set) bool {
	if s == 0 {
		return false
	}
	return g.Component(s) == s
}

// Component returns the connected component of s that contains its
// lowest index; the empty set has none and yields the empty set.
func (g *Graph) Component(s Set) Set {
	if s == 0 {
		return 0
	}
	return g.componentOf(s.First(), s)
}

// componentOf returns the connected component of seed within the
// restriction of the graph to universe. It walks the frontier's bits in
// place, so connectivity queries allocate nothing.
func (g *Graph) componentOf(seed int, universe Set) Set {
	comp := Singleton(seed)
	frontier := comp
	for frontier != 0 {
		var next Set
		for f := frontier; f != 0; f &= f - 1 {
			next |= g.adj[f.First()] & universe
		}
		frontier = next &^ comp
		comp |= frontier
	}
	return comp
}

// Components returns the connected components of the sub-scheme s, in
// order of their smallest member.
func (g *Graph) Components(s Set) []Set {
	var out []Set
	for rest := s; rest != 0; {
		c := g.componentOf(rest.First(), rest)
		out = append(out, c)
		rest &^= c
	}
	return out
}

// ComponentCount returns comp(s): the number of connected components of
// the sub-scheme s.
func (g *Graph) ComponentCount(s Set) int {
	n := 0
	for rest := s; rest != 0; {
		rest &^= g.componentOf(rest.First(), rest)
		n++
	}
	return n
}

// ConnectedSubsets returns every nonempty connected subset of s. The
// result is exponential in |s|; callers are the condition checkers and
// tests, which only use small schemes.
func (g *Graph) ConnectedSubsets(s Set) []Set {
	var out []Set
	s.Subsets(func(t Set) bool {
		if g.Connected(t) {
			out = append(out, t)
		}
		return true
	})
	return out
}

// ConnectedContaining calls fn over connected subsets of universe that
// contain seed, by breadth-first growth. Used by enumeration helpers.
func (g *Graph) ConnectedContaining(universe Set, seed int, fn func(Set) bool) {
	universe = universe.Add(seed)
	g.ConnectedSubsetsOf(universe, func(t Set) bool {
		if t.Has(seed) {
			return fn(t)
		}
		return true
	})
}

// ConnectedSubsetsOf calls fn for every nonempty connected subset of
// universe, stopping early if fn returns false.
func (g *Graph) ConnectedSubsetsOf(universe Set, fn func(Set) bool) {
	universe.Subsets(func(t Set) bool {
		if g.Connected(t) {
			return fn(t)
		}
		return true
	})
}

// ConnectedContainingSeed calls fn for every connected subset of
// universe that contains seed (which must be in universe), each exactly
// once, stopping early when fn returns false. The enumeration is
// output-sensitive (the classic connected-subgraph expansion with a
// forbidden set), so sparse schemes — chains, trees — pay polynomially
// in the number of connected subsets rather than 2^|universe|.
func (g *Graph) ConnectedContainingSeed(universe Set, seed int, fn func(Set) bool) {
	if !universe.Has(seed) {
		return
	}
	var rec func(cur, forbidden Set) bool
	rec = func(cur, forbidden Set) bool {
		if !fn(cur) {
			return false
		}
		ext := g.Neighbors(cur).Intersect(universe).Minus(forbidden)
		var processed Set
		for t := ext; t != 0; {
			v := t.First()
			t = t.Remove(v)
			if !rec(cur.Add(v), forbidden.Union(processed)) {
				return false
			}
			processed = processed.Add(v)
		}
		return true
	}
	rec(Singleton(seed), 0)
}

// ConnectedSplits calls fn for every split of the connected set s into
// two connected nonempty parts (a, b) with a ∪ b = s, a ∩ b = ∅ and a
// containing s's smallest element (so each unordered split is reported
// once). These are exactly the Cartesian-product-free root steps for s —
// the csg/cmp pairs of join-order enumeration.
func (g *Graph) ConnectedSplits(s Set, fn func(a, b Set) bool) {
	if s.Len() < 2 || !g.Connected(s) {
		return
	}
	g.ConnectedContainingSeed(s, s.First(), func(a Set) bool {
		if a == s {
			return true
		}
		b := s.Minus(a)
		if g.Connected(b) {
			return fn(a, b)
		}
		return true
	})
}
