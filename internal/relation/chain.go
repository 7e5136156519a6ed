package relation

//joinlint:hotpath

import "math/bits"

// chainTable is the one-shot build index of the join and semijoin
// kernels: a flat chained hash table over the rows of one ID slab,
// keyed on the shared-attribute hash. heads holds, per slot, the
// ordinal+1 of the first row of that slot's chain (0: empty); next
// holds, per row, the ordinal+1 of the next row in its chain. A
// repeated key — the normal case for a join on a non-key attribute —
// only lengthens a chain, so a build costs two allocations whatever the
// key distribution.
//
// Rows are inserted last-to-first, so every chain lists its ordinals in
// ascending order and a probe meets the matching build rows in slab
// order; the join's output order is therefore a function of its inputs
// alone.
type chainTable struct {
	heads []int32
	next  []int32
	shift uint
}

// fibMul is 2^64/φ. The slot is taken from the high bits of the key
// hash times fibMul (Fibonacci hashing): FNV-1a's own high bits barely
// vary over small dense IDs, which would pile them into a few chains.
const fibMul = 0x9E3779B97F4A7C15

// newChainTable indexes the listed rows of the width-w slab data (nil:
// every row) on the IDs at positions key, in 2^b ≥ 2n slots. Chains
// hold list positions: rowAt maps one back to its slab ordinal.
func newChainTable(data []uint32, w int, rows []int32, key []int) chainTable {
	n := listLen(rows, data, w)
	b := 0
	if n > 0 {
		b = bits.Len(uint(2*n - 1))
	}
	t := chainTable{
		heads: make([]int32, 1<<b),
		next:  make([]int32, n),
		shift: uint(64 - b),
	}
	for k := n - 1; k >= 0; k-- {
		i := rowAt(rows, k)
		s := t.slot(hashIDsAt(data[i*w:i*w+w], key))
		t.next[k] = t.heads[s]
		t.heads[s] = int32(k + 1)
	}
	return t
}

// listLen is the number of rows a row list selects from a width-w
// slab (w > 0); a nil list selects every row.
func listLen(rows []int32, data []uint32, w int) int {
	if rows == nil {
		return len(data) / w
	}
	return len(rows)
}

// rowAt is the slab ordinal of the k-th row a list selects.
func rowAt(rows []int32, k int) int {
	if rows == nil {
		return k
	}
	return int(rows[k])
}

// slot maps a key hash to its chain.
func (t *chainTable) slot(h uint64) uint64 {
	return (h * fibMul) >> t.shift
}

// first returns the ordinal+1 of the first row in the chain of key
// hash h (0: none); t.next[k-1] continues the chain from k.
func (t *chainTable) first(h uint64) int32 {
	return t.heads[t.slot(h)]
}
