package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// Differential tests: the catalogs built from the ID-slab kernels
// (relation.DistinctCount, relation.MatchCount) against the string-level
// statistics they replaced — distinct counts from a projection, and
// histograms merged bucket by bucket on every Size call. The estimates
// must agree bit for bit on every subset, because the chosen plans and
// every reported Est depend on the exact floats.

// refDistinctCatalog is NewCatalog with every distinct count taken from
// the projection onto the attribute.
func refDistinctCatalog(db *database.Database) *Catalog {
	c := NewCatalog(db)
	ref := *c
	ref.distinct = make([][]float64, db.Len())
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		ref.distinct[i] = make([]float64, len(c.attrs))
		for _, a := range r.Schema().Attrs() {
			ref.distinct[i][c.index[a]] = float64(relation.Project(r, relation.NewSchema(a)).Size())
		}
	}
	ref.counts = make([]int, len(c.attrs))
	ref.maxD = make([]float64, len(c.attrs))
	ref.touched = nil
	return &ref
}

// refBucket is one histogram bucket of the string-level reference.
type refBucket struct {
	v relation.Value
	c float64
}

// refHistogram is the string-histogram catalog: per relation and
// attribute a value-sorted list of (value, frequency) buckets built
// from the decoded rows, merged pairwise inside every Size call.
type refHistogram struct {
	*Catalog
	freq [][][]refBucket
}

func newRefHistogram(db *database.Database) *refHistogram {
	h := &refHistogram{Catalog: refDistinctCatalog(db), freq: make([][][]refBucket, db.Len())}
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		counts := make([]map[relation.Value]float64, len(attrs))
		for j := range counts {
			counts[j] = make(map[relation.Value]float64)
		}
		for _, row := range r.Rows() {
			for j := range attrs {
				counts[j][row[j]]++
			}
		}
		h.freq[i] = make([][]refBucket, len(h.attrs))
		for j, a := range attrs {
			buckets := make([]refBucket, 0, len(counts[j]))
			for v, c := range counts[j] {
				buckets = append(buckets, refBucket{v: v, c: c})
			}
			sort.Slice(buckets, func(x, y int) bool { return buckets[x].v < buckets[y].v })
			h.freq[i][h.index[a]] = buckets
		}
	}
	return h
}

func (h *refHistogram) Size(s hypergraph.Set) float64 {
	if s.Empty() {
		return 0
	}
	seenBy := make(map[int]int)
	first := s.First()
	est := h.card[first]
	for _, pos := range h.relAttrs[first] {
		seenBy[pos] = first
	}
	for rest := s.Remove(first); !rest.Empty(); {
		i := rest.First()
		rest = rest.Remove(i)
		est *= h.card[i]
		for _, pos := range h.relAttrs[i] {
			if j, ok := seenBy[pos]; ok {
				est *= h.pairSelectivity(pos, j, i)
			} else {
				seenBy[pos] = i
			}
		}
	}
	return est
}

func (h *refHistogram) pairSelectivity(pos, j, i int) float64 {
	fj, fi := h.freq[j][pos], h.freq[i][pos]
	if len(fj) == 0 || len(fi) == 0 || h.card[j] == 0 || h.card[i] == 0 {
		return 0
	}
	match := 0.0
	for x, y := 0, 0; x < len(fj) && y < len(fi); {
		switch {
		case fj[x].v < fi[y].v:
			x++
		case fj[x].v > fi[y].v:
			y++
		default:
			match += fj[x].c * fi[y].c
			x++
			y++
		}
	}
	return match / (h.card[j] * h.card[i])
}

// redict re-encodes r into dict, interning its values in reverse row
// order so the IDs differ from the source dictionary's.
func redict(r *relation.Relation, dict *relation.Dict) *relation.Relation {
	rows := r.Rows()
	for k := len(rows) - 1; k >= 0; k-- {
		for _, v := range rows[k] {
			dict.ID(v)
		}
	}
	out := relation.NewIn(dict, r.Name(), r.Schema())
	for _, row := range rows {
		out.InsertRow(row)
	}
	return out
}

// csvRelation loads r's rows through the CSV loader into its own
// database dictionary.
func csvRelation(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	attrs := r.Schema().Attrs()
	for k, a := range attrs {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(a))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows() {
		for k, v := range row {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(v))
		}
		b.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, r.Name()+".csv"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := database.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db.Relation(0)
}

// mixedDicts rebuilds db so its relations carry different dictionaries:
// even positions are CSV-loaded (each into its own database dictionary),
// odd positions are re-encoded into one fresh dictionary, and relation
// 1 (when present) is left on the dictionary it was generated in.
func mixedDicts(t *testing.T, db *database.Database) *database.Database {
	t.Helper()
	fresh := relation.NewDict()
	rels := make([]*relation.Relation, db.Len())
	for i := range rels {
		r := db.Relation(i)
		switch {
		case i == 1:
			rels[i] = r
		case i%2 == 0:
			rels[i] = csvRelation(t, r)
		default:
			rels[i] = redict(r, fresh)
		}
	}
	dicts := map[*relation.Dict]bool{}
	for _, r := range rels {
		dicts[r.Dict()] = true
	}
	if len(dicts) < 3 {
		t.Fatalf("mixed database carries %d dictionaries, want ≥ 3", len(dicts))
	}
	return database.New(rels...)
}

// emptied returns db with relation i replaced by an empty state.
func emptied(db *database.Database, i int) *database.Database {
	rels := append([]*relation.Relation(nil), db.Relations()...)
	rels[i] = relation.New(rels[i].Name(), rels[i].Schema())
	return database.New(rels...)
}

func differentialDatabases(t *testing.T) map[string]*database.Database {
	rng := rand.New(rand.NewSource(2024))
	out := map[string]*database.Database{}
	shapes := []gen.Shape{gen.Chain, gen.Cycle, gen.Star, gen.Clique}
	for _, sh := range shapes {
		for n := 3; n <= 6; n++ {
			out[fmt.Sprintf("uniform-%v-%d", sh, n)] = gen.Uniform(rng, gen.Schemes(sh, n), 12, 5)
			out[fmt.Sprintf("zipf-%v-%d", sh, n)] = gen.Zipf(rng, gen.Schemes(sh, n), 25, 8, 1.3)
		}
		zipf := gen.Zipf(rng, gen.Schemes(sh, 5), 30, 6, 1.5)
		out[fmt.Sprintf("empty-%v", sh)] = emptied(zipf, 2)
		out[fmt.Sprintf("mixed-%v", sh)] = mixedDicts(t, zipf)
		out[fmt.Sprintf("mixed-empty-%v", sh)] = mixedDicts(t, emptied(zipf, 3))
	}
	return out
}

func TestCatalogSizeMatchesProjectionReference(t *testing.T) {
	for name, db := range differentialDatabases(t) {
		c, ref := NewCatalog(db), refDistinctCatalog(db)
		for s := hypergraph.Set(1); s <= db.All(); s++ {
			if got, want := c.Size(s), ref.Size(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Size(%b) = %v, projection reference %v", name, s, got, want)
			}
		}
	}
}

func TestHistogramSizeMatchesMergeReference(t *testing.T) {
	for name, db := range differentialDatabases(t) {
		h, ref := NewHistogramCatalog(db), newRefHistogram(db)
		for s := hypergraph.Set(0); s <= db.All(); s++ {
			if got, want := h.Size(s), ref.Size(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Size(%b) = %v, merge reference %v", name, s, got, want)
			}
		}
	}
}
