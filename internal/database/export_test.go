package database

import "multijoin/internal/hypergraph"

// MemoSubsets exposes memoSubsets to the external tests, which may
// import the generators.
func MemoSubsets(ev *Evaluator) []hypergraph.Set { return memoSubsets(ev) }
