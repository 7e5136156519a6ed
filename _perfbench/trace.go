package main

import (
	"sync"
	"time"

	"multijoin/internal/hypergraph"
	"multijoin/internal/optimizer"
)

// The traced run. The benchmark's own code records a span around each
// call it makes into a layer's public functions: name, start, end,
// parent, and the op's trace id (the op index). Spans stay in memory and
// are written out when the run ends. A span's self time is its duration
// minus its children's.

// residualTolerance bounds, per traced op, the share of the op's wall
// time that no layer span covers (the benchmark's own glue between
// calls). The traced run is correct when at most residualOpsShare of
// its ops exceed it: a goroutine descheduled between two spans of a
// sub-millisecond serve op can leave a gap of a tenth of the op.
const (
	residualTolerance = 0.05
	residualOpsShare  = 0.01
)

// spanRec is one completed span.
type spanRec struct {
	Client int    `json:"client"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks a call the traced op adds to measure a layer (a
	// replay, a warm repeat, the fan-out reference), as opposed to the
	// calls that make up the op itself.
	Probe bool `json:"probe,omitempty"`
}

// tracer records one client's spans; it is not safe for concurrent use.
type tracer struct {
	epoch time.Time
	spans []spanRec
	open  []int // indexes of open spans, innermost last
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, probe bool) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRec{Trace: t.trace, ID: idx + 1, Parent: parent,
		Name: name, Start: t.now(), Probe: probe})
	t.open = append(t.open, idx)
	return idx
}

func (t *tracer) end(idx int) {
	t.spans[idx].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) int {
	t.trace = i
	return t.begin("op", false)
}

// span times fn as a layer call that is part of the op.
func (t *tracer) span(name string, fn func()) {
	idx := t.begin(name, false)
	fn()
	t.end(idx)
}

// probe times fn as a measuring call the op itself does not make.
func (t *tracer) probe(name string, fn func()) {
	idx := t.begin(name, true)
	fn()
	t.end(idx)
}

// child records a span of the given duration under the innermost open
// span, ending now: the aggregate of many short calls (SizeModel
// probes).
func (t *tracer) child(name string, dur int64) {
	parent := t.open[len(t.open)-1]
	end := t.now()
	t.attach(parent, name, end-dur, end)
}

// attach records a span read from elsewhere — a serve response's own
// trace — as a child of the span at index parent.
func (t *tracer) attach(parent int, name string, start, end int64) {
	t.spans = append(t.spans, spanRec{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent + 1,
		Name: name, Start: start, End: end, Probe: t.spans[parent].Probe})
}

// timedSize wraps a SizeModel, counting its calls and their time so the
// optimizer's self time can exclude them.
type timedSize struct {
	model optimizer.SizeModel
	calls int64
	ns    int64
}

func (s *timedSize) size(set hypergraph.Set) float64 {
	t0 := time.Now()
	v := s.model(set)
	s.ns += int64(time.Since(t0))
	s.calls++
	return v
}

// modelCall runs fn as an optimizer span whose Size calls appear as one
// estimate.size child.
func (t *tracer) modelCall(name string, ts *timedSize, fn func()) {
	ns := ts.ns
	idx := t.begin(name, false)
	fn()
	t.child("estimate.size", ts.ns-ns)
	t.end(idx)
}

// counts accumulates layer counts across a traced loop's clients.
type counts struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounts() *counts { return &counts{m: map[string]float64{}} }

func (c *counts) add(name string, v float64) {
	c.mu.Lock()
	c.m[name] += v
	c.mu.Unlock()
}

func (c *counts) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// spanAgg is the traced run's spans summed by name.
type spanAgg struct {
	total, self map[string]int64
	// opWork is the summed duration of the spans that make up the ops
	// (probes excluded); the property shares are taken against it.
	opWork int64
	// maxResidual is the largest per-op share of wall time no layer span
	// covered; overTolerance counts ops whose share exceeded the bound.
	maxResidual   float64
	overTolerance int
}

func aggregate(tracers []*tracer) spanAgg {
	a := spanAgg{total: map[string]int64{}, self: map[string]int64{}}
	for _, t := range tracers {
		childDur := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent > 0 {
				childDur[s.Parent-1] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			dur := s.End - s.Start
			self := dur - childDur[i]
			if s.Parent == 0 {
				// The root's self time is the op's unattributed residual.
				r := float64(self) / float64(max(dur, 1))
				a.maxResidual = max(a.maxResidual, r)
				if r > residualTolerance {
					a.overTolerance++
				}
				continue
			}
			a.total[s.Name] += dur
			a.self[s.Name] += self
			if t.spans[s.Parent-1].Parent == 0 && !s.Probe {
				a.opWork += dur
			}
		}
	}
	return a
}

// layerMetrics turns the traced run into the per-layer metrics. Times
// are milliseconds per op unless the name says otherwise; counts are per
// op. A layer the workload does not reach reads 0.
func layerMetrics(a spanAgg, c *counts, plain, traced loopStats) map[string]metric {
	ops := float64(traced.ops)
	perOp := func(name string) float64 { return float64(a.total[name]) / 1e6 / ops }
	selfPerOp := func(name string) float64 { return float64(a.self[name]) / 1e6 / ops }
	ratio := func(x, y float64) float64 { return finite(x / y) }
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{finite(v), unit} }

	put("relation.join_ms", "ms", perOp("relation.join"))
	put("relation.join_rows_per_ms", "rows/ms", ratio(c.get("relation.join_rows"), float64(a.total["relation.join"])/1e6))
	put("relation.join_partitions", "count", c.get("relation.join_partitions")/ops)

	evalMS := perOp("database.materialize") + perOp("database.eval") +
		perOp("optimizer.optimize") - perOp("optimizer.optimize_warm")
	put("database.materialize_ms", "ms", perOp("database.materialize"))
	put("database.eval_ms", "ms", evalMS)
	put("database.eval_tuples", "tuples", c.get("database.eval_tuples")/ops)
	put("database.memo_subsets", "count", c.get("database.memo_subsets")/ops)
	hits, misses := c.get("database.memo_hits"), c.get("database.memo_misses")
	put("database.memo_hit_ratio", "fraction", ratio(hits, hits+misses))
	put("database.inflight_waits", "count", c.get("database.inflight_waits")/ops)
	for _, fam := range []string{"scale", "tree"} {
		put("database.work_ratio."+fam, "ratio",
			ratio(c.get("work.eval_tuples."+fam), c.get("work.step_tuples."+fam)))
	}

	put("conditions.check_ms", "ms", perOp("conditions.check"))

	put("optimizer.dp_cold_ms", "ms", perOp("optimizer.optimize"))
	put("optimizer.dp_warm_ms", "ms", perOp("optimizer.optimize_warm"))
	put("optimizer.states", "count", c.get("optimizer.states")/ops)
	put("optimizer.model_dp_ms", "ms", selfPerOp("optimizer.model_dp"))
	put("optimizer.model_greedy_ms", "ms", selfPerOp("optimizer.model_greedy"))

	put("estimate.catalog_ms", "ms", perOp("estimate.catalog"))
	put("estimate.histogram_ms", "ms", perOp("estimate.histogram"))
	put("estimate.size_calls", "count", c.get("estimate.size_calls")/ops)
	put("estimate.size_us", "us", ratio(float64(a.total["estimate.size"])/1e3, c.get("estimate.size_calls")))

	put("semijoin.yannakakis_ms", "ms", perOp("semijoin.yannakakis"))
	put("semijoin.semijoins", "count", c.get("semijoin.semijoins")/ops)

	put("core.analyze_ms", "ms", perOp("core.analyze"))
	put("core.plan_ms", "ms", perOp("core.plan"))
	put("core.execute_ms", "ms", perOp("core.execute"))
	put("core.fingerprint_ms", "ms", perOp("core.fingerprint"))
	put("core.fanout_speedup", "ratio", ratio(c.get("core.sequential_ns"), float64(a.total["core.analyze"])))

	put("serve.decode_ms", "ms", perOp("serve.decode"))
	put("serve.request_ms", "ms", perOp("serve.request"))
	put("serve.admission_ms", "ms", perOp("serve.admission"))
	put("serve.optimize_ms", "ms", perOp("serve.optimize"))
	put("serve.execute_ms", "ms", perOp("serve.execute"))
	put("serve.handler_self_ms", "ms", selfPerOp("serve.request"))
	put("serve.response_kb", "KiB", c.get("serve.response_bytes")/1024/ops)
	sh, sm := c.get("serve.cache_hits"), c.get("serve.cache_misses")
	put("serve.cache_hit_ratio", "fraction", ratio(sh, sh+sm))
	put("serve.cache_evictions", "count", c.get("serve.cache_evictions")/ops)
	put("serve.hot_p50_ms", "ms", ms(quantile(plain.classLat["hot"], 0.5)))
	put("serve.cold_p50_ms", "ms", ms(quantile(plain.classLat["cold"], 0.5)))

	pops := float64(plain.ops)
	put("runtime.gc_cycles_per_op", "count", float64(plain.gcCycles)/pops)
	put("runtime.gc_pause_ms_per_op", "ms", ms(plain.gcPause)/pops)

	put("trace.overhead", "ratio", ratio(ops/traced.wall.Seconds(), pops/plain.wall.Seconds()))
	put("trace.residual_max", "fraction", a.maxResidual)

	work := float64(a.opWork) / 1e6 / ops
	put("property.eval_kernel_share", "fraction", ratio(evalMS, work))
	estMS := perOp("estimate.catalog") + perOp("estimate.histogram") + perOp("estimate.size")
	put("property.estimate_share", "fraction", ratio(estMS, work))
	hr := c.get("serve.hot_request_ns")
	put("property.hot_nonengine_share", "fraction", ratio(hr-c.get("serve.hot_engine_ns"), hr))
	return m
}
