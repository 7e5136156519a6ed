package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// The column-statistics kernels against string-level oracles, on both
// counting paths: "dense" relations live in a dictionary holding only
// their own values, "sparse" ones in a dictionary padded far past
// denseFactor IDs per row.

// statsRel builds a random relation in dict, after padding the
// dictionary with pad unrelated values.
func statsRel(rng *rand.Rand, dict *Dict, pad int, schema string, maxRows, domain int) *Relation {
	for k := 0; k < pad; k++ {
		dict.ID(Value(fmt.Sprintf("pad%d", k)))
	}
	r := NewIn(dict, "", SchemaFromString(schema))
	rows := rng.Intn(maxRows + 1)
	sch := r.Schema()
	for k := 0; k < rows; k++ {
		row := make([]Value, sch.Len())
		for j := range row {
			row[j] = Value(fmt.Sprintf("v%d", rng.Intn(domain)))
		}
		r.InsertRow(row)
	}
	return r
}

// referenceMatch counts the pairs of rows agreeing on the two columns,
// comparing decoded values.
func referenceMatch(r *Relation, rc int, s *Relation, sc int) int64 {
	var n int64
	for _, rr := range r.Rows() {
		for _, sr := range s.Rows() {
			if rr[rc] == sr[sc] {
				n++
			}
		}
	}
	return n
}

func TestDistinctCountMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, pad := range []int{0, 500} {
		for i := 0; i < 200; i++ {
			r := statsRel(rng, NewDict(), pad, "ABC", 12, 5)
			for col, a := range r.Schema().Attrs() {
				if got, want := DistinctCount(r, col), Project(r, NewSchema(a)).Size(); got != want {
					t.Fatalf("pad %d: DistinctCount(%v, %d) = %d, projection has %d", pad, r, col, got, want)
				}
			}
		}
	}
}

func TestMatchCountMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, pad := range []int{0, 500} {
		for i := 0; i < 200; i++ {
			shared := NewDict()
			r := statsRel(rng, shared, pad, "AB", 12, 5)
			same := statsRel(rng, shared, 0, "BC", 12, 5)
			// other holds s's values under different IDs, plus values
			// r's dictionary has never seen.
			other := statsRel(rng, NewDict(), pad, "BC", 12, 7)
			for _, s := range []*Relation{same, other} {
				for rc := 0; rc < 2; rc++ {
					for sc := 0; sc < 2; sc++ {
						if got, want := MatchCount(r, rc, s, sc), referenceMatch(r, rc, s, sc); got != want {
							t.Fatalf("pad %d: MatchCount(%v, %d, %v, %d) = %d, nested loop %d", pad, r, rc, s, sc, got, want)
						}
						if got, want := MatchCount(s, sc, r, rc), referenceMatch(r, rc, s, sc); got != want {
							t.Fatalf("pad %d: reversed MatchCount = %d, nested loop %d", pad, got, want)
						}
					}
				}
			}
		}
	}
}

func TestColumnStatsRejectBadColumns(t *testing.T) {
	r := FromStrings("R", "AB", "p 0")
	for name, f := range map[string]func(){
		"DistinctCount": func() { DistinctCount(r, 2) },
		"MatchCount":    func() { MatchCount(r, 0, r, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an out-of-range column", name)
				}
			}()
			f()
		}()
	}
}
