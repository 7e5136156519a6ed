package main

import (
	"testing"
	"time"

	"multijoin/internal/core"
)

// pass is one warmed-up workload measured for a single pass, untraced
// then traced, with one client so every count is deterministic.
type pass struct {
	fps           []core.Fingerprint
	plain, traced loopStats
	metrics       map[string]metric
	counts        *counts
	props         map[string]float64
}

func onePass(t *testing.T, w workload, seed int64) pass {
	t.Helper()
	b, _, _, err := prepare(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	start := b.warmupOps()
	plain := runLoop(b, 1, start, time.Nanosecond, nil)
	traced, agg, c, _ := runTraced(b, 1, start+plain.ops, time.Nanosecond)
	for _, l := range []loopStats{plain, traced} {
		if l.failed > 0 {
			t.Fatalf("%d of %d ops failed: %v", l.failed, l.ops, l.firstErr)
		}
	}
	if float64(agg.overTolerance) > residualOpsShare*float64(traced.ops) {
		t.Errorf("%d of %d traced ops leave more than %.0f%% of their wall to no layer (max %.3f)",
			agg.overTolerance, traced.ops, 100*residualTolerance, agg.maxResidual)
	}
	return pass{fps: b.fingerprints(), plain: plain, traced: traced,
		metrics: layerMetrics(agg, c, plain, traced), counts: c, props: b.properties()}
}

// deterministicCounts are the counts one client must repeat exactly.
var deterministicCounts = []string{
	"database.eval_tuples", "estimate.size_calls", "optimizer.states",
	"serve.cache_hits", "serve.cache_misses", "serve.cache_evictions",
}

func TestSameSeedRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := onePass(t, w, 7), onePass(t, w, 7)
			if len(a.fps) != len(b.fps) {
				t.Fatalf("corpus sizes %d and %d", len(a.fps), len(b.fps))
			}
			for i := range a.fps {
				if a.fps[i] != b.fps[i] {
					t.Fatalf("database %d: fingerprints %v and %v", i, a.fps[i], b.fps[i])
				}
			}
			if a.plain.ops != b.plain.ops || a.plain.tau != b.plain.tau || a.traced.tau != b.traced.tau {
				t.Errorf("τ differs: %d/%d ops τ=%d, %d/%d ops τ=%d", a.plain.ops, a.traced.ops, a.plain.tau,
					b.plain.ops, b.traced.ops, b.plain.tau)
			}
			for _, k := range deterministicCounts {
				if x, y := a.counts.get(k), b.counts.get(k); x != y {
					t.Errorf("%s: %v and %v", k, x, y)
				}
			}
		})
	}
}

// propertyRanges are the stated ranges of each workload's static shares.
var propertyRanges = map[string][2]float64{
	"property.tree_op_share": {0.3, 0.5},
	"property.hot_share":     {0.6, 0.7},
	"property.cold_share":    {0.05, 0.15},
}

// dominant is the layer share each workload exists to load, which must
// exceed one half.
var dominant = map[string]string{
	"analyze": "property.eval_kernel_share",
	"plan":    "property.estimate_share",
	"execute": "property.eval_kernel_share",
	"serve":   "property.hot_nonengine_share",
}

func TestOtherSeedDiffersWithSameProperties(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := onePass(t, w, 7), onePass(t, w, 8)
			same := 0
			for i := range a.fps {
				if i < len(b.fps) && a.fps[i] == b.fps[i] {
					same++
				}
			}
			if same > len(a.fps)/10 {
				t.Errorf("%d of %d databases keep their fingerprint under another seed", same, len(a.fps))
			}
			for k, v := range b.props {
				r, ok := propertyRanges[k]
				if !ok || v < r[0] || v > r[1] {
					t.Errorf("%s = %v, outside %v", k, v, r)
				}
			}
			if v := b.metrics[dominant[w.name]].Value; v <= 0.5 {
				t.Errorf("%s = %.3f, want the predicted layer to dominate", dominant[w.name], v)
			}
			if w.name == "execute" {
				tree, scale := b.metrics["database.work_ratio.tree"].Value, b.metrics["database.work_ratio.scale"].Value
				if tree < 100*scale {
					t.Errorf("work ratio: tree %.1f, scale %.2f; want the tree over-work visible", tree, scale)
				}
			}
		})
	}
}
