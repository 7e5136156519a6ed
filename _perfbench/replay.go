package main

import (
	"multijoin/internal/database"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// joinFunc is a binary join: relation.Join, relation.ReferenceJoin, or a
// traced wrapper of the kernel.
type joinFunc func(r, s *relation.Relation) *relation.Relation

// replay evaluates a strategy bottom up with join, outside the
// evaluator: each internal node joins its children's results. It returns
// the final relation and τ, the summed sizes of the intermediate results.
func replay(db *database.Database, n *strategy.Node, join joinFunc) (*relation.Relation, int64) {
	if n.IsLeaf() {
		return db.Relation(n.Index()), 0
	}
	l, lt := replay(db, n.Left(), join)
	r, rt := replay(db, n.Right(), join)
	out := join(l, r)
	return out, lt + rt + int64(out.Size())
}

// joinTally counts a traced replay's output rows and hash partitions.
type joinTally struct{ rows, partitions int }

func (t joinTally) addTo(c *counts) {
	c.add("relation.join_rows", float64(t.rows))
	c.add("relation.join_partitions", float64(t.partitions))
}

// tracedJoin is relation.Join with each call recorded as a relation.join
// probe span and its output counted in t.
func tracedJoin(tr *tracer, t *joinTally) joinFunc {
	return func(r, s *relation.Relation) *relation.Relation {
		var out *relation.Relation
		tr.probe("relation.join", func() { out = relation.Join(r, s) })
		t.rows += out.Size()
		t.partitions += out.JoinPartitions()
		return out
	}
}
