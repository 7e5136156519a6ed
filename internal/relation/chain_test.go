package relation

import "testing"

// chainStats walks every chain of t, returning the longest chain and
// the number of occupied slots.
func chainStats(t *chainTable) (longest, occupied int) {
	for _, k := range t.heads {
		n := 0
		for ; k != 0; k = t.next[k-1] {
			n++
		}
		if n > 0 {
			occupied++
		}
		longest = max(longest, n)
	}
	return longest, occupied
}

// Dense sequential IDs — what a dictionary hands out — must spread over
// the slots. FNV-1a's high bits barely vary over such IDs, so a table
// that slotted on them directly would pile the rows into a few long
// chains; the Fibonacci multiply is what keeps them short.
func TestChainTableSpreadsDenseIDs(t *testing.T) {
	const n = 1 << 15
	oneCol := make([]uint32, n)
	twoCol := make([]uint32, 2*n)
	for i := range oneCol {
		oneCol[i] = uint32(i)
		twoCol[2*i], twoCol[2*i+1] = uint32(i>>8), uint32(i&0xff)
	}
	for _, tc := range []struct {
		name string
		data []uint32
		w    int
		key  []int
	}{
		{"one column", oneCol, 1, []int{0}},
		{"two columns", twoCol, 2, []int{0, 1}},
	} {
		table := newChainTable(tc.data, tc.w, nil, tc.key)
		if len(table.heads) < 2*n {
			t.Fatalf("%s: %d slots for %d rows, want ≥ %d", tc.name, len(table.heads), n, 2*n)
		}
		longest, occupied := chainStats(&table)
		if longest > 8 || occupied < n/2 {
			t.Fatalf("%s: longest chain %d (want ≤ 8), %d occupied slots (want ≥ %d)",
				tc.name, longest, occupied, n/2)
		}
	}
}

// Every chain lists its rows in ascending order, so a probe meets the
// matching build rows in slab order.
func TestChainTableChainsAscend(t *testing.T) {
	data := make([]uint32, 1000)
	for i := range data {
		data[i] = uint32(i % 7) // heavy key repetition
	}
	rows := []int32{3, 4, 10, 11, 500, 999}
	for _, list := range [][]int32{nil, rows} {
		table := newChainTable(data, 1, list, []int{0})
		seen := 0
		for _, k := range table.heads {
			prev := int32(0)
			for ; k != 0; k = table.next[k-1] {
				if k <= prev {
					t.Fatalf("chain not ascending: %d after %d", k, prev)
				}
				prev = k
				seen++
			}
		}
		if seen != listLen(list, data, 1) {
			t.Fatalf("chains hold %d rows, want %d", seen, listLen(list, data, 1))
		}
	}
}
