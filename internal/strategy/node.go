// Package strategy implements the paper's strategies (Section 2): rooted
// binary trees whose leaves are the relations of a database and whose
// internal nodes ("steps") are joins of disjoint sub-databases. It
// provides the cost function τ, the structural predicates (linear, uses /
// avoids Cartesian products, evaluates components individually), the
// pluck and graft transformations used in the proofs of Lemmas 2–6, the
// exhaustive enumerators for the strategy subspaces that query optimizers
// search, and closed-form counts of those subspaces.
package strategy

import (
	"errors"
	"fmt"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// Node is a node of a strategy tree. A leaf holds a single relation
// index; an internal node (a "step" in the paper's terminology) joins its
// two children, whose index sets are disjoint. The node's Set is always
// the union of its leaves' indexes, mirroring the paper's node labels
// [D′, R_D′]: the relation state component R_D′ is not stored, because it
// is determined by D′ (and recomputed on demand by a database.Evaluator).
//
// Nodes are immutable once built; transformations return new trees and
// may share untouched subtrees.
type Node struct {
	left, right *Node
	set         hypergraph.Set
}

// Leaf returns the trivial strategy [{R_i}, R_i] for relation index i.
func Leaf(i int) *Node {
	return &Node{set: hypergraph.Singleton(i)}
}

// Combine returns the step joining the two sub-strategies. It panics if
// their index sets overlap, which violates condition (S3) of the paper.
func Combine(l, r *Node) *Node {
	if !l.set.Disjoint(r.set) {
		panic(fmt.Sprintf("strategy: Combine of overlapping sets %v, %v", l.set, r.set))
	}
	return &Node{left: l, right: r, set: l.set.Union(r.set)}
}

// LeftDeep builds the linear strategy (…((R_i1 ⋈ R_i2) ⋈ R_i3) … ⋈ R_ik)
// from the given relation indexes. It panics on duplicates or on fewer
// than one index.
func LeftDeep(order ...int) *Node {
	if len(order) == 0 {
		panic("strategy: LeftDeep needs at least one index")
	}
	n := Leaf(order[0])
	for _, i := range order[1:] {
		n = Combine(n, Leaf(i))
	}
	return n
}

// IsLeaf reports whether the node is a trivial (single-relation) strategy.
func (n *Node) IsLeaf() bool { return n.left == nil }

// Set returns the node's index set D′.
func (n *Node) Set() hypergraph.Set { return n.set }

// Left returns the left child (nil for leaves).
func (n *Node) Left() *Node { return n.left }

// Right returns the right child (nil for leaves).
func (n *Node) Right() *Node { return n.right }

// Index returns the relation index of a leaf; it panics on steps.
func (n *Node) Index() int {
	if !n.IsLeaf() {
		panic("strategy: Index of internal node")
	}
	return n.set.First()
}

// Steps appends every internal node in post-order (children before
// parents, so costs accumulate bottom-up like an actual evaluation).
func (n *Node) Steps() []*Node {
	var out []*Node
	n.walk(func(m *Node) {
		if !m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// StepCount returns the number of steps; a strategy for k relations has
// k − 1 steps.
func (n *Node) StepCount() int { return n.set.Len() - 1 }

// Leaves returns the relation indexes at the leaves, left to right.
func (n *Node) Leaves() []int {
	var out []int
	n.walkPre(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.set.First())
		}
	})
	return out
}

// walk visits nodes post-order.
func (n *Node) walk(fn func(*Node)) {
	if n.left != nil {
		n.left.walk(fn)
		n.right.walk(fn)
	}
	fn(n)
}

// walkPre visits nodes pre-order.
func (n *Node) walkPre(fn func(*Node)) {
	fn(n)
	if n.left != nil {
		n.left.walkPre(fn)
		n.right.walkPre(fn)
	}
}

// Find returns the unique node whose index set equals s, or nil. Node
// sets within one strategy are pairwise distinct (children strictly
// partition their parent), so the answer is well defined.
func (n *Node) Find(s hypergraph.Set) *Node {
	if n.set == s {
		return n
	}
	if n.IsLeaf() || !s.SubsetOf(n.set) {
		return nil
	}
	if s.SubsetOf(n.left.set) {
		return n.left.Find(s)
	}
	if s.SubsetOf(n.right.set) {
		return n.right.Find(s)
	}
	return nil
}

// Contains reports whether some node of the strategy has index set s —
// i.e. whether [s, R_s] "is a step in S" (or a leaf) in the paper's
// phrasing.
func (n *Node) Contains(s hypergraph.Set) bool { return n.Find(s) != nil }

// Validate checks the structural conditions (S1)–(S4): every internal
// node's children are disjoint and union to the node's set, and leaves
// are singletons drawn from the given universe.
func (n *Node) Validate(universe hypergraph.Set) error {
	if !n.set.SubsetOf(universe) {
		return fmt.Errorf("strategy: node set %v outside universe %v", n.set, universe)
	}
	var err error
	n.walk(func(m *Node) {
		if err != nil {
			return
		}
		if m.IsLeaf() {
			if m.right != nil {
				err = errors.New("strategy: leaf with single child")
				return
			}
			if m.set.Len() != 1 {
				err = fmt.Errorf("strategy: leaf with non-singleton set %v", m.set)
			}
			return
		}
		if m.right == nil {
			err = errors.New("strategy: internal node with one child")
			return
		}
		if !m.left.set.Disjoint(m.right.set) {
			err = fmt.Errorf("strategy: overlapping children %v, %v", m.left.set, m.right.set)
			return
		}
		if m.left.set.Union(m.right.set) != m.set {
			err = fmt.Errorf("strategy: node set %v is not the union of its children", m.set)
		}
	})
	return err
}

// IsLinear reports whether the strategy is linear: every step has a
// trivial strategy (a leaf) as a child.
func (n *Node) IsLinear() bool {
	if n.IsLeaf() {
		return true
	}
	for _, s := range n.Steps() {
		if !s.left.IsLeaf() && !s.right.IsLeaf() {
			return false
		}
	}
	return true
}

// UsesCartesian reports whether some step joins two sub-databases that
// are not linked to each other.
func (n *Node) UsesCartesian(g *hypergraph.Graph) bool {
	return n.CartesianStepCount(g) > 0
}

// CartesianStepCount returns the number of steps that use a Cartesian
// product.
func (n *Node) CartesianStepCount(g *hypergraph.Graph) int {
	count := 0
	for _, s := range n.Steps() {
		if !g.Linked(s.left.set, s.right.set) {
			count++
		}
	}
	return count
}

// EvaluatesComponentsIndividually reports whether, for each connected
// component E of the strategy's database scheme, [E, R_E] is a node of
// the strategy.
func (n *Node) EvaluatesComponentsIndividually(g *hypergraph.Graph) bool {
	for _, comp := range g.Components(n.set) {
		if !n.Contains(comp) {
			return false
		}
	}
	return true
}

// AvoidsCartesian reports the paper's "S avoids Cartesian products": S
// evaluates its components individually and uses exactly comp(D) − 1
// Cartesian-product steps (the unavoidable ones that combine the
// components). For a connected scheme this reduces to using no Cartesian
// products at all.
func (n *Node) AvoidsCartesian(g *hypergraph.Graph) bool {
	if !n.EvaluatesComponentsIndividually(g) {
		return false
	}
	return n.CartesianStepCount(g) == g.ComponentCount(n.set)-1
}

// Eval returns the node's relation state R_D′. On a memo miss a step
// is materialized from its own children (database.Evaluator.EvalJoin),
// the way an executor runs it, so evaluating a strategy's steps in
// post-order builds exactly the strategy's intermediate results.
func (n *Node) Eval(ev *database.Evaluator) *relation.Relation {
	if n.IsLeaf() {
		return ev.Eval(n.set)
	}
	return ev.EvalJoin(n.left.set, n.right.set)
}

// Cost returns τ(S): the total number of tuples generated by the
// strategy's steps, including the final result (Section 2).
func (n *Node) Cost(ev *database.Evaluator) int {
	total := 0
	for _, s := range n.Steps() {
		total += s.Eval(ev).Size()
	}
	return total
}

// StepCosts returns the per-step tuple counts in post-order, aligned with
// Steps().
func (n *Node) StepCosts(ev *database.Evaluator) []int {
	steps := n.Steps()
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = s.Eval(ev).Size()
	}
	return out
}

// MonotoneDecreasing reports whether every step produces no more tuples
// than either of its operands (Section 5).
func (n *Node) MonotoneDecreasing(ev *database.Evaluator) bool {
	for _, s := range n.Steps() {
		c := s.Eval(ev).Size()
		if c > ev.Size(s.left.set) || c > ev.Size(s.right.set) {
			return false
		}
	}
	return true
}

// MonotoneIncreasing reports whether every step produces at least as many
// tuples as each of its operands (Section 5).
func (n *Node) MonotoneIncreasing(ev *database.Evaluator) bool {
	for _, s := range n.Steps() {
		c := s.Eval(ev).Size()
		if c < ev.Size(s.left.set) || c < ev.Size(s.right.set) {
			return false
		}
	}
	return true
}

// Equal reports structural equality of two strategies, treating the two
// children of a step as unordered (R ⋈ S and S ⋈ R are the same
// strategy, as the paper's examples do).
func (n *Node) Equal(m *Node) bool {
	if n.set != m.set {
		return false
	}
	if n.IsLeaf() || m.IsLeaf() {
		return n.IsLeaf() && m.IsLeaf()
	}
	if n.left.set == m.left.set {
		return n.left.Equal(m.left) && n.right.Equal(m.right)
	}
	if n.left.set == m.right.set {
		return n.left.Equal(m.right) && n.right.Equal(m.left)
	}
	return false
}

// Clone returns a deep copy of the strategy.
func (n *Node) Clone() *Node {
	if n.IsLeaf() {
		return Leaf(n.set.First())
	}
	return Combine(n.left.Clone(), n.right.Clone())
}

// String renders the strategy with relation indexes, e.g. "((0⋈1)⋈2)".
func (n *Node) String() string {
	if n.IsLeaf() {
		return itoa(n.set.First())
	}
	return "(" + n.left.String() + "⋈" + n.right.String() + ")"
}

// Render renders the strategy using the database's relation names (or
// indexes for unnamed relations), e.g. "((R1⋈R2)⋈R3)".
func (n *Node) Render(db *database.Database) string {
	if n.IsLeaf() {
		i := n.set.First()
		if name := db.Relation(i).Name(); name != "" {
			return name
		}
		return itoa(i)
	}
	return "(" + n.left.Render(db) + "⋈" + n.right.Render(db) + ")"
}

func itoa(n int) string {
	return fmt.Sprintf("%d", n)
}
