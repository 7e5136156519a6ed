package database_test

import (
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
)

// The execute benchmark's tree scheme — the first 8-relation draw of
// gen.RandomAcyclicSchemes from seed 1 — puts its low indexes in the
// middle of the tree, where splitting off the lowest index would build
// Cartesian products of up to four components.
func TestEvalAllOnTreeMemoizesOnlyConnectedSubsets(t *testing.T) {
	schemes := gen.RandomAcyclicSchemes(rand.New(rand.NewSource(1)), 8)
	db := gen.Uniform(rand.New(rand.NewSource(2)), schemes, 30, 30)
	ev := database.NewEvaluator(db)
	ev.Result()
	g := db.Graph()
	for _, s := range database.MemoSubsets(ev) {
		if !g.Connected(s) {
			t.Errorf("Eval(All) materialized the unconnected subset %v", s)
		}
	}
	if n := len(database.MemoSubsets(ev)); n != 2*db.Len()-1 {
		t.Errorf("memo holds %d subsets, want %d: the relations and one rest per step", n, 2*db.Len()-1)
	}
}
