package relation

//joinlint:hotpath

// Row-slab internals. A Relation stores its state as one flat row-major
// []uint32 slab of dictionary IDs (width = schema.Len()), with a lazy
// hash index (64-bit FNV-1a over the IDs, collision-confirmed by ID
// comparison) for dedup and membership. The slab layout means a join
// emits rows by copying machine words, never allocating or hashing
// strings, and the lazy index means derived relations whose rows are
// duplicate-free by construction (join outputs, semijoins, selections)
// never pay for an index at all.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashIDs hashes a full ID row.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h = (h ^ uint64(id)) * fnvPrime64
	}
	return h
}

// hashIDsAt hashes the IDs at the given positions of a row — the join
// and semijoin key hash over the shared attributes, which both picks a
// row's partition and (mixed by chainTable.slot) its chain.
func hashIDsAt(row []uint32, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h = (h ^ uint64(row[p])) * fnvPrime64
	}
	return h
}

// equalIDs reports whether two ID rows are identical.
func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// equalIDsAt reports whether a's IDs at apos equal b's IDs at bpos
// (len(apos) == len(bpos) by construction).
func equalIDsAt(a []uint32, apos []int, b []uint32, bpos []int) bool {
	for i, p := range apos {
		if a[p] != b[bpos[i]] {
			return false
		}
	}
	return true
}

// groupMap is the membership index: it maps full-row hashes to row
// ordinals without paying a slice-header allocation per distinct key.
// A hash with a single row stores the ordinal directly in the map
// value, and only true hash collisions spill into a chain. The rows of
// a set are distinct and their 64-bit hash covers every column, so
// spills are vanishingly rare and building the index allocates O(1)
// beyond the map. It is incremental: appendIDs keeps it in step with
// the slab. Join and semijoin keys repeat freely, so those one-shot
// builds use chainTable (chain.go) instead.
type groupMap struct {
	m     map[uint64]int32
	spill [][]int32
}

func newGroupMap(capacity int) groupMap {
	return groupMap{m: make(map[uint64]int32, capacity)}
}

// add records row ordinal i under hash h. Ordinals are non-negative;
// a negative map value ^k points at spill chain k.
func (g *groupMap) add(h uint64, i int32) {
	v, ok := g.m[h]
	if !ok {
		g.m[h] = i
		return
	}
	if v >= 0 {
		g.m[h] = int32(^len(g.spill))
		g.spill = append(g.spill, []int32{v, i})
		return
	}
	g.spill[^v] = append(g.spill[^v], i)
}

// lookup returns the rows recorded under h: the common single-row case
// comes back in first with chain nil; a spilled chain comes back in
// chain.
func (g *groupMap) lookup(h uint64) (first int32, chain []int32, ok bool) {
	v, found := g.m[h]
	if !found {
		return 0, nil, false
	}
	if v >= 0 {
		return v, nil, true
	}
	return 0, g.spill[^v], true
}

// rowIDs returns the i-th row of the slab as a shared subslice. The
// caller must not modify it.
func (r *Relation) rowIDs(i int) []uint32 {
	w := r.schema.Len()
	return r.data[i*w : i*w+w]
}

// ensureIndex builds the hash index over the current slab if it is not
// already present. Relations produced by the duplicate-free operators
// carry no index until a membership question is first asked — which may
// now happen from several goroutines at once, since memoized relations
// are shared across the parallel subspace searches. The index pointer
// is therefore published with a compare-and-swap: concurrent builders
// race benignly (each builds an equivalent index over the same
// immutable rows; the first store wins) and readers always observe
// either nil or a fully built index.
func (r *Relation) ensureIndex() {
	if r.index.Load() != nil {
		return
	}
	idx := newGroupMap(r.n)
	for i := 0; i < r.n; i++ {
		idx.add(hashIDs(r.rowIDs(i)), int32(i))
	}
	r.index.CompareAndSwap(nil, &idx)
}

// lookupIDs returns the ordinal of the row equal to ids, or −1. The
// index must already exist.
func (r *Relation) lookupIDs(ids []uint32) int {
	first, chain, ok := r.index.Load().lookup(hashIDs(ids))
	if !ok {
		return -1
	}
	if chain == nil {
		if equalIDs(r.rowIDs(int(first)), ids) {
			return int(first)
		}
		return -1
	}
	for _, cand := range chain {
		if equalIDs(r.rowIDs(int(cand)), ids) {
			return int(cand)
		}
	}
	return -1
}

// appendIDs appends a row known not to duplicate any existing row,
// keeping the index (if built) in step. Construction is single-owner:
// only the relation's builder appends, so the incremental index update
// needs no synchronization beyond the atomic pointer read.
func (r *Relation) appendIDs(ids []uint32) {
	r.data = append(r.data, ids...)
	if idx := r.index.Load(); idx != nil {
		idx.add(hashIDs(ids), int32(r.n))
	}
	r.n++
}

// insertIDs appends a row unless an equal row is already present,
// reporting whether it was inserted.
func (r *Relation) insertIDs(ids []uint32) bool {
	r.ensureIndex()
	if r.lookupIDs(ids) >= 0 {
		return false
	}
	r.appendIDs(ids)
	return true
}

// scratchWidth is the widest row interned through a stack buffer; wider
// schemas (rare) fall back to a heap scratch.
const scratchWidth = 16

// internRow interns a positional value row into the relation's
// dictionary and inserts it with dedup. buf is the caller's scratch
// (usually a stack array), reused across calls so duplicate inserts
// allocate nothing.
func (r *Relation) internRow(row []Value, buf []uint32) {
	for i, v := range row {
		buf[i] = r.dict.ID(v)
	}
	r.insertIDs(buf[:len(row)])
}

// translator converts IDs of one dictionary into another, caching the
// mapping. With intern true unseen values are added to the target;
// otherwise a missing value reports ok == false (no row of the target
// can contain it).
type translator struct {
	from, to *Dict
	intern   bool
	cache    map[uint32]uint32
	missing  map[uint32]bool
}

func newTranslator(from, to *Dict, intern bool) *translator {
	return &translator{from: from, to: to, intern: intern,
		cache: make(map[uint32]uint32), missing: make(map[uint32]bool)}
}

func (t *translator) id(id uint32) (uint32, bool) {
	if out, ok := t.cache[id]; ok {
		return out, true
	}
	if t.missing[id] {
		return 0, false
	}
	v := t.from.Value(id)
	if t.intern {
		out := t.to.ID(v)
		t.cache[id] = out
		return out, true
	}
	out, ok := t.to.Lookup(v)
	if !ok {
		t.missing[id] = true
		return 0, false
	}
	t.cache[id] = out
	return out, true
}

// row translates a whole row through the cache into buf; ok is false
// when any value is unknown to the target dictionary.
func (t *translator) row(ids []uint32, buf []uint32) ([]uint32, bool) {
	for i, id := range ids {
		out, ok := t.id(id)
		if !ok {
			return nil, false
		}
		buf[i] = out
	}
	return buf[:len(ids)], true
}

// alignedData returns s's row slab re-encoded in dict, interning as
// needed. When s already uses dict the slab is shared, not copied.
func alignedData(s *Relation, dict *Dict) []uint32 {
	if s.dict == dict {
		return s.data
	}
	tr := newTranslator(s.dict, dict, true)
	out := make([]uint32, len(s.data))
	for i, id := range s.data {
		out[i], _ = tr.id(id)
	}
	return out
}
