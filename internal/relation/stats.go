package relation

//joinlint:hotpath

// Column statistics straight off the ID slabs, for the estimate
// catalogs and plan fingerprints: no row decoding, no string hashing.
// Both kernels cost O(rows), never O(dictionary size): a relation whose
// dictionary is small next to its rows counts into a dense ID-indexed
// slice, and a small relation in a large (e.g. process-wide) dictionary
// counts into a map sized by its rows.

// denseFactor bounds the dense scratch: a slice indexed by ID is used
// only while the dictionary holds at most denseFactor IDs per row.
const denseFactor = 4

// idCounts is a frequency table over one dictionary's IDs.
type idCounts struct {
	dense  []int32
	sparse map[uint32]int32
}

func newIDCounts(dict *Dict, rows int) idCounts {
	if n := dict.Len(); n <= denseFactor*rows {
		return idCounts{dense: make([]int32, n)}
	}
	return idCounts{sparse: make(map[uint32]int32, rows)}
}

// inc adds one to id's count and returns the count before the increment.
func (c *idCounts) inc(id uint32) int32 {
	if c.dense != nil {
		old := c.dense[id]
		c.dense[id] = old + 1
		return old
	}
	old := c.sparse[id]
	c.sparse[id] = old + 1
	return old
}

// get returns id's count. An ID past the dense table was issued after
// the table was sized, so no counted row holds it.
func (c *idCounts) get(id uint32) int32 {
	if c.dense != nil {
		if int(id) >= len(c.dense) {
			return 0
		}
		return c.dense[id]
	}
	return c.sparse[id]
}

// DistinctCount returns the number of distinct values in column col
// (a position in the schema's sorted attribute order) — the size of the
// projection of r onto that attribute, without building it.
func DistinctCount(r *Relation, col int) int {
	w := r.schema.Len()
	if col < 0 || col >= w {
		panic("relation: DistinctCount column out of range")
	}
	if r.n == 0 {
		return 0
	}
	counts := newIDCounts(r.dict, r.n)
	distinct := 0
	for i := col; i < len(r.data); i += w {
		if counts.inc(r.data[i]) == 0 {
			distinct++
		}
	}
	return distinct
}

// MatchCount returns Σ_v f_r(v)·f_s(v), where f_r(v) counts the rows of
// r whose column rc holds v and f_s(v) the rows of s whose column sc
// does: the exact size of the equi-join of r and s on that one pair of
// columns. Relations encoded against different dictionaries are matched
// by value, translating s's IDs into r's dictionary.
func MatchCount(r *Relation, rc int, s *Relation, sc int) int64 {
	rw, sw := r.schema.Len(), s.schema.Len()
	if rc < 0 || rc >= rw || sc < 0 || sc >= sw {
		panic("relation: MatchCount column out of range")
	}
	if r.n == 0 || s.n == 0 {
		return 0
	}
	counts := newIDCounts(r.dict, r.n+s.n)
	for i := rc; i < len(r.data); i += rw {
		counts.inc(r.data[i])
	}
	var match int64
	if r.dict == s.dict {
		for i := sc; i < len(s.data); i += sw {
			match += int64(counts.get(s.data[i]))
		}
		return match
	}
	tr := newTranslator(s.dict, r.dict, false)
	for i := sc; i < len(s.data); i += sw {
		if id, ok := tr.id(s.data[i]); ok {
			match += int64(counts.get(id))
		}
	}
	return match
}
