package estimate

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// The subset DPs call Size on every subproblem — tens of thousands of
// times for a 12-relation plan. The catalogs gather their statistics
// once, in one pass over the ID slabs at construction, so Size only
// reads precomputed tables and scratch buffers and must allocate
// nothing; construction must cost in proportion to the rows, not the
// dictionary. These budgets guard both, mirroring the join kernel's
// alloc tests.

func TestCatalogSizeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := gen.Uniform(rng, gen.Schemes(gen.Clique, 6), 20, 5)
	c := NewCatalog(db)
	all := db.All()
	allocs := testing.AllocsPerRun(50, func() {
		for s := hypergraph.Set(1); s <= all; s++ {
			c.Size(s)
		}
	})
	if allocs > 0 {
		t.Fatalf("Catalog.Size allocated %v times over the subset sweep, want 0", allocs)
	}
}

func TestHistogramSizeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := gen.Zipf(rng, gen.Schemes(gen.Chain, 6), 30, 8, 1.4)
	h := NewHistogramCatalog(db)
	all := db.All()
	allocs := testing.AllocsPerRun(50, func() {
		for s := hypergraph.Set(1); s <= all; s++ {
			h.Size(s)
		}
	})
	if allocs > 0 {
		t.Fatalf("HistogramCatalog.Size allocated %v times over the subset sweep, want 0", allocs)
	}
}

// Catalog construction must cost O(rows), not O(dictionary size): a
// small relation may live in a large dictionary (the process-wide one,
// or a loaded database's), and sizing the counting scratch by the
// dictionary would make every catalog pay for every value ever
// interned. A 10-row chain in a 10⁵-value dictionary must build both
// catalogs in a few kilobytes; one dictionary-sized int32 table per
// statistic would take megabytes.
func TestCatalogBuildScalesWithRowsNotDictionary(t *testing.T) {
	dict := relation.NewDict()
	for v := 0; v < 100000; v++ {
		dict.ID(relation.Value(fmt.Sprintf("d%d", v)))
	}
	rng := rand.New(rand.NewSource(9))
	var rels []*relation.Relation
	for _, sch := range gen.Schemes(gen.Chain, 3) {
		r := relation.NewIn(dict, "", sch)
		for r.Size() < 10 {
			r.InsertRow([]relation.Value{
				relation.Value(fmt.Sprintf("d%d", rng.Intn(100000))),
				relation.Value(fmt.Sprintf("d%d", rng.Intn(100000))),
			})
		}
		rels = append(rels, r)
	}
	db := database.New(rels...)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		NewHistogramCatalog(db)
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per catalog build", perBuild)
	const budget = 32 << 10
	if perBuild > budget {
		t.Fatalf("building a 10-row catalog allocated %d bytes, budget %d: scratch sized by the dictionary?", perBuild, budget)
	}
}
