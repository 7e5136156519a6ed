package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

// Differential tests: the optimized kernel (dictionary-encoded,
// hash-partitioned) against the nested-loop oracle in reference.go.
// Where the property tests check algebraic laws, these check raw
// extensional equality, input by input, on both the sequential and the
// parallel partitioned path.

var differentialSchemes = []struct{ r, s string }{
	{"AB", "BC"},   // one shared attribute
	{"AB", "AB"},   // identical schemes (join = intersection)
	{"AB", "CD"},   // unlinked (join = product)
	{"ABC", "BCD"}, // two shared attributes
	{"A", "A"},     // single-column
	{"AB", "ABC"},  // subset scheme
	{"ABCD", "CF"}, // one shared, asymmetric widths
}

func TestJoinMatchesReferenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, sc := range differentialSchemes {
		for i := 0; i < 150; i++ {
			r := randRel(rng, "R", sc.r, 10, 4)
			s := randRel(rng, "S", sc.s, 10, 4)
			want := ReferenceJoin(r, s)
			if got := Join(r, s); !got.Equal(want) {
				t.Fatalf("%s⋈%s diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
					sc.r, sc.s, r, s, got, want)
			}
			// Both ways: the kernel swaps build/probe sides on size, so
			// the reversed call exercises the opposite assignment.
			if got := Join(s, r); !got.Equal(want) {
				t.Fatalf("%s⋈%s (reversed) diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
					sc.s, sc.r, r, s, got, want)
			}
		}
	}
}

func TestSemijoinMatchesReferenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, sc := range differentialSchemes {
		for i := 0; i < 150; i++ {
			r := randRel(rng, "R", sc.r, 10, 4)
			s := randRel(rng, "S", sc.s, 10, 4)
			if got, want := Semijoin(r, s), ReferenceSemijoin(r, s); !got.Equal(want) {
				t.Fatalf("%s⋉%s diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
					sc.r, sc.s, r, s, got, want)
			}
			if got, want := Semijoin(s, r), ReferenceSemijoin(s, r); !got.Equal(want) {
				t.Fatalf("%s⋉%s diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
					sc.s, sc.r, r, s, got, want)
			}
		}
	}
}

// forceParallel lowers the partitioned-path threshold for the duration
// of one test so every linked join runs on the worker pool.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelJoinThreshold
	parallelJoinThreshold = 1
	t.Cleanup(func() { parallelJoinThreshold = old })
}

func TestParallelJoinMatchesReferenceOracle(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(93))
	for _, sc := range differentialSchemes {
		for i := 0; i < 100; i++ {
			r := randRel(rng, "R", sc.r, 10, 4)
			s := randRel(rng, "S", sc.s, 10, 4)
			want := ReferenceJoin(r, s)
			got := Join(r, s)
			if !got.Equal(want) {
				t.Fatalf("parallel %s⋈%s diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
					sc.r, sc.s, r, s, got, want)
			}
			shared := !r.Schema().Intersect(s.Schema()).Empty()
			if shared && r.Size()+s.Size() >= 1 && got.JoinPartitions() != joinPartitionCount {
				t.Fatalf("expected %d partitions, got %d", joinPartitionCount, got.JoinPartitions())
			}
			if !shared && got.JoinPartitions() != 0 {
				t.Fatalf("unlinked join must stay sequential, got %d partitions", got.JoinPartitions())
			}
		}
	}
}

func TestParallelJoinDeterministicOrder(t *testing.T) {
	// The partitioned path must produce the same row order on every
	// run: fixed partition count, fixed partition concatenation order,
	// per-partition probe order — nothing depends on goroutine
	// scheduling. This join is large enough to cross the default
	// threshold without any test override.
	const n, domain = 5000, 300
	r := New("R", SchemaFromString("AB"))
	s := New("S", SchemaFromString("BC"))
	for i := 0; i < n; i++ {
		a := Value(rune('0' + i/domain))
		b := Value(rune(1000 + i%domain))
		r.InsertRow([]Value{a, b})
		s.InsertRow([]Value{b, a})
	}
	if r.Size()+s.Size() < parallelJoinThreshold {
		t.Fatalf("inputs too small to cross the default parallel threshold: %d+%d < %d",
			r.Size(), s.Size(), parallelJoinThreshold)
	}
	first := Join(r, s)
	if first.JoinPartitions() != joinPartitionCount {
		t.Fatalf("expected the partitioned path, got %d partitions", first.JoinPartitions())
	}
	// The sequential kernel is the differentially-validated baseline
	// (the oracle itself is too slow at this size); the parallel result
	// must be the same set.
	old := parallelJoinThreshold
	parallelJoinThreshold = 1 << 30
	seq := Join(r, s)
	parallelJoinThreshold = old
	if seq.JoinPartitions() != 0 {
		t.Fatalf("baseline unexpectedly took the parallel path")
	}
	if !first.Equal(seq) {
		t.Fatalf("parallel join diverges from sequential: %d vs %d rows", first.Size(), seq.Size())
	}
	for run := 0; run < 3; run++ {
		again := Join(r, s)
		if !reflect.DeepEqual(first.Rows(), again.Rows()) {
			t.Fatalf("parallel join row order changed between runs")
		}
	}
}

// nestedLoopRows is the sequential kernel's emission order spelled out
// as a nested loop: the larger input probes (r on a tie), and for each
// probe row, in order, the matching build rows follow in ascending
// order. Each row is laid out over the sorted union scheme.
func nestedLoopRows(r, s *Relation) [][]Value {
	build, probe := r, s
	if r.Size() > s.Size() {
		build, probe = s, r
	}
	attrs := r.Schema().Union(s.Schema()).Attrs()
	rows := [][]Value{}
	for _, pt := range probe.Tuples() {
		for _, bt := range build.Tuples() {
			merged, ok := bt.Merge(pt)
			if !ok {
				continue
			}
			row := make([]Value, len(attrs))
			for i, a := range attrs {
				row[i] = merged[a]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// The sequential kernel emits rows in nested-loop order, not merely the
// same set: the τ ledgers and strategy traces compare relations across
// runs row for row.
func TestSequentialJoinRowOrderIsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	check := func(r, s *Relation) {
		t.Helper()
		got := Join(r, s)
		if got.JoinPartitions() != 0 {
			t.Fatalf("%v⋈%v took the partitioned path", r.Schema(), s.Schema())
		}
		if want := nestedLoopRows(r, s); !reflect.DeepEqual(got.Rows(), want) {
			t.Fatalf("%v⋈%v row order:\nr = %v\ns = %v\ngot  %v\nwant %v",
				r.Schema(), s.Schema(), r, s, got.Rows(), want)
		}
	}
	for _, sc := range differentialSchemes {
		for i := 0; i < 100; i++ {
			r := randRel(rng, "R", sc.r, 10, 4)
			s := randRel(rng, "S", sc.s, 10, 4)
			check(r, s)
			check(s, r)
		}
	}
	// The Cartesian bypass, including an empty side.
	full := randRel(rng, "R", "AB", 10, 4)
	for full.Empty() {
		full = randRel(rng, "R", "AB", 10, 4)
	}
	empty := New("S", SchemaFromString("CD"))
	check(full, empty)
	check(empty, full)
	check(full, randRel(rng, "S", "CD", 10, 4))
}
