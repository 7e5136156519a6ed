package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Allocation budgets for the kernel hot paths. These are regression
// tripwires, not micro-targets: each budget has headroom over the
// measured cost of the dictionary-encoded kernel but sits one to two
// orders of magnitude below what the string-keyed kernel spent, so a
// change that silently reintroduces per-row allocation fails loudly.

func TestJoinAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	// Warm the dictionary and the one-time lazy structures.
	Join(r, s)
	allocs := testing.AllocsPerRun(10, func() { Join(r, s) })
	// Measured 18 allocs: the output slab's growth steps plus the
	// chained table's two slices. The map-and-spill build it replaced
	// spent ~390, the string-keyed kernel ~40000.
	const budget = 64
	if allocs > budget {
		t.Fatalf("Join allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

func TestParallelJoinAllocBudget(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(12))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	Join(r, s)
	allocs := testing.AllocsPerRun(10, func() { Join(r, s) })
	// The partitioned path adds per-partition tables, slabs, and
	// goroutine bookkeeping on top of the sequential cost (measured 139
	// allocs; the map-and-spill build spent ~600).
	const budget = 400
	if allocs > budget {
		t.Fatalf("parallel Join allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

func TestInsertRowDuplicateAllocBudget(t *testing.T) {
	r := New("R", SchemaFromString("AB"))
	rows := make([][]Value, 200)
	for i := range rows {
		rows[i] = []Value{Value(fmt.Sprintf("v%d", i)), Value(fmt.Sprintf("w%d", i))}
		r.InsertRow(rows[i])
	}
	// Re-inserting existing rows goes through the stack scratch, the
	// dictionary read path, and the index probe: zero heap allocations.
	allocs := testing.AllocsPerRun(20, func() {
		for _, row := range rows {
			r.InsertRow(row)
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate InsertRow allocates %.2f allocs per batch, want 0", allocs)
	}
}

func TestSemijoinAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	Semijoin(r, s)
	allocs := testing.AllocsPerRun(10, func() { Semijoin(r, s) })
	// Measured 18 allocs (the output slab's growth steps plus the
	// chained table); the map-and-spill build spent ~390.
	const budget = 64
	if allocs > budget {
		t.Fatalf("Semijoin allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

// Repeated join keys only lengthen the chained table's chains, so the
// build allocates the same two slices however often a key repeats;
// what remains is the output slab's growth. The map-and-spill build
// allocated a spill slice per repeated key (62–391 allocs here).
func TestJoinAllocsUnderRepeatedKeys(t *testing.T) {
	const budget = 32
	for _, domain := range []int{10, 100, 1000} {
		rng := rand.New(rand.NewSource(15))
		r := benchRel(rng, "R", "AB", 1000, domain)
		s := benchRel(rng, "S", "BC", 1000, domain)
		if Join(r, s).JoinPartitions() != 0 {
			t.Fatalf("domain %d: join took the partitioned path", domain)
		}
		Semijoin(r, s)
		if allocs := testing.AllocsPerRun(10, func() { Join(r, s) }); allocs > budget {
			t.Errorf("domain %d: Join allocates %.0f allocs/op, budget %d", domain, allocs, budget)
		}
		if allocs := testing.AllocsPerRun(10, func() { Semijoin(r, s) }); allocs > budget {
			t.Errorf("domain %d: Semijoin allocates %.0f allocs/op, budget %d", domain, allocs, budget)
		}
	}
}

// A Cartesian product's size is known before it is built, so its
// output slab is allocated once at full size rather than grown.
func TestCartesianJoinAllocatesSlabOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := benchRel(rng, "R", "AB", 300, 1000)
	s := benchRel(rng, "S", "CD", 300, 1000)
	Join(r, s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := Join(r, s)
	runtime.ReadMemStats(&after)
	if out.Size() != r.Size()*s.Size() {
		t.Fatalf("product has %d rows, want %d", out.Size(), r.Size()*s.Size())
	}
	slab := uint64(out.Size() * out.Schema().Len() * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got > slab+slab/8 {
		t.Fatalf("Cartesian join allocated %d bytes for a %d-byte slab", got, slab)
	}
}
