// Command perfbench is the repository's benchmark. It drives one of four
// closed-loop workloads against the module's packages from a single
// seeded process, checks every answer against a reference computed by a
// different code path, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a separate traced run) as the last
// line of standard output:
//
//	bash _perfbench/run.sh --workload analyze --seed 1 --seconds 20 --trace 0
//
// The workloads and the layer each one loads are described in
// BENCHMARK.json and in the file of the same name (analyze.go, plan.go,
// execute.go, serve.go). Determinism self-tests run with
// `cd _perfbench && go test ./...`. The directory name starts with an
// underscore so the go tool's ./... patterns and the repository's lint
// walker leave this separate module alone.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"multijoin/internal/core"
)

// setupReps is how many times a run sets up; setup_s reports the
// median, so one slow set-up does not decide the figure.
const setupReps = 3

// workload is one entry of the benchmark: a name, its closed-loop client
// count, and the constructor that generates its corpus from a seed.
type workload struct {
	name    string
	clients int
	build   func(seed int64) (bench, error)
}

var workloads = []workload{
	{name: "analyze", clients: 1, build: buildAnalyze},
	{name: "plan", clients: 1, build: buildPlan},
	{name: "execute", clients: 1, build: buildExecute},
	{name: "serve", clients: 2, build: buildServe},
}

// bench is one workload's prepared corpus and op sequence. Op i of a run
// is always the same operation on the same input, so two runs with one
// seed execute the same sequence.
type bench interface {
	// reference computes the answers ops are checked against, by a code
	// path other than the one the op exercises. It is not part of set-up
	// time.
	reference() error
	// passLen is the length of the repeating op pattern; runs measure
	// whole passes, so every run has the same mix of op classes.
	passLen() int
	// warmupOps is how many ops the warm-up runs (a multiple of passLen).
	warmupOps() int
	// class names op i's class or family.
	class(i int) string
	// run performs op i with tracing off: calls into the system only.
	run(i int) any
	// check compares op i's outcome with the reference and returns the
	// summed τ of the plans the op returned or executed.
	check(i int, out any) (tau int64, err error)
	// traced performs op i decomposed into spans around each call into a
	// layer's public functions. It returns the op's outcome and a
	// function run once the op's root span has ended, which reads the
	// program's own output into c so that reading is not timed as part
	// of the op; its error is a failed reconciliation (for example the τ
	// ledger identity).
	traced(i int, tr *tracer, c *counts) (out any, after func() error)
	// fingerprints lists core.FingerprintDB of every corpus database.
	fingerprints() []core.Fingerprint
	// properties reports static shares of the op sequence.
	properties() map[string]float64
}

// staticProperties are the op-sequence shares benches report; the
// traced run prints all of them, 0 where a workload has no such class.
var staticProperties = []string{"property.tree_op_share", "property.hot_share", "property.cold_share"}

// counterSource is a bench whose program keeps process-wide counters;
// the traced run reports their change across the traced loop.
type counterSource interface {
	programCounters() map[string]float64
}

func main() {
	name := flag.String("workload", "", "workload: analyze, plan, execute or serve")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "seconds a run measures; --trace 1 splits them between an untraced and a traced loop")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload analyze|plan|execute|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run prints: the environment stamp, the
// property report, and the summary line that tools read.
type result struct {
	Env        map[string]any       `json:"env"`
	Properties map[string]float64   `json:"properties"`
	Classes    map[string]classStat `json:"classes"`
	Detail     map[string]any       `json:"detail"`
	summary
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// classStat is the latency of one op class in the untraced loop.
type classStat struct {
	Ops   int     `json:"ops"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
}

// write prints the environment stamp, the property report and then, as
// the last line, the summary.
func (r *result) write(f *os.File) error {
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"env": r.Env}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"properties": r.Properties, "classes": r.Classes, "detail": r.Detail}); err != nil {
		return err
	}
	return enc.Encode(r.summary)
}

// prepare sets the workload up setupReps times — generate the corpus,
// build the server and request bodies, run the warm-up ops — and keeps
// the last set-up. It then computes the reference answers, which are not
// part of set-up time. It returns the bench, the median set-up time and
// every set-up's time.
func prepare(w workload, seed int64) (b bench, setup float64, parts []float64, err error) {
	for r := 0; r < setupReps; r++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		b, err = w.build(seed)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for i := 0; i < b.warmupOps(); i++ {
			b.run(i)
		}
		parts = append(parts, time.Since(t0).Seconds())
	}
	if err := b.reference(); err != nil {
		return nil, 0, nil, fmt.Errorf("%s reference: %w", w.name, err)
	}
	return b, median(parts), parts, nil
}

func runWorkload(w workload, seed int64, dur time.Duration, trace bool) (*result, error) {
	b, setup, setupParts, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	start := b.warmupOps()
	if trace {
		// The traced run follows an untraced loop it is compared with;
		// each gets half the time, so a traced run costs what an untraced
		// one does.
		dur /= 2
	}
	runtime.GC()
	plain := runLoop(b, w.clients, start, dur, nil)

	res := &result{
		Properties: b.properties(),
		Classes:    plain.classStats(),
		Detail:     map[string]any{"setup_runs_s": setupParts},
		summary: summary{
			Attempted: plain.ops,
			Failed:    plain.failed,
			Metrics:   map[string]metric{},
		},
	}
	if plain.firstErr != nil {
		res.Detail["first_failure"] = plain.firstErr.Error()
	}
	p50, p90 := plain.quantile(0.5), plain.quantile(0.9)
	res.Env = map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"clients":    w.clients,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"trace":      trace,
		"ops":        plain.ops,
		"passes":     plain.ops / b.passLen(),
		"seconds":    plain.wall.Seconds(),
		"beyond_p50": plain.beyond(0.5),
		"beyond_p90": plain.beyond(0.9),
	}
	ops := float64(plain.ops)
	if !trace {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{finite(v), unit} }
		put("setup_s", "s", setup)
		put("ops_per_s", "1/s", ops/plain.wall.Seconds())
		put("p50_ms", "ms", ms(p50))
		put("p90_ms", "ms", ms(p90))
		put("cpu_ms_per_op", "ms", ms(plain.cpu)/ops)
		put("alloc_mb_per_op", "MB", float64(plain.allocBytes)/(1<<20)/ops)
		put("peak_rss_mb", "MB", peakRSSMB())
		put("tau_per_op", "tuples", float64(plain.tau)/ops)
		put("ok_frac", "fraction", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		res.Correct = res.Failed == 0
		return res, nil
	}

	runtime.GC()
	traced, agg, c, tracers := runTraced(b, w.clients, start+plain.ops, dur)
	res.Metrics = layerMetrics(agg, c, plain, traced)
	for _, k := range staticProperties {
		res.Metrics[k] = metric{b.properties()[k], "fraction"}
	}
	res.Attempted += traced.ops
	res.Failed += traced.failed
	if traced.firstErr != nil {
		res.Detail["first_traced_failure"] = traced.firstErr.Error()
	}
	res.Detail["trace_residual_tolerance"] = residualTolerance
	res.Detail["trace_ops_over_tolerance"] = agg.overTolerance
	res.Detail["traced_ops"] = traced.ops
	res.Detail["ledger_checks"] = c.get("trace.ledger_checks")
	res.Detail["trace_ops_share_allowed"] = residualOpsShare
	res.Correct = res.Failed == 0 && float64(agg.overTolerance) <= residualOpsShare*float64(traced.ops)
	if err := writeSpans(w.name, seed, tracers); err != nil {
		return nil, err
	}
	return res, nil
}

// runTraced runs the traced loop: every op decomposed into layer spans,
// with the program's own counters read across the loop.
func runTraced(b bench, clients, start int, dur time.Duration) (loopStats, spanAgg, *counts, []*tracer) {
	c := newCounts()
	tracers := make([]*tracer, clients)
	for k := range tracers {
		tracers[k] = newTracer()
	}
	src, _ := b.(counterSource)
	var before map[string]float64
	if src != nil {
		before = src.programCounters()
	}
	traced := runLoop(b, clients, start, dur, &tracedRun{tracers: tracers, counts: c})
	if src != nil {
		for k, v := range src.programCounters() {
			c.add(k, v-before[k])
		}
	}
	return traced, aggregate(tracers), c, tracers
}

// commit names the code under test: the git revision when the checkout
// has one, otherwise a digest of the module's Go sources.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "src:" + sourceDigest(".")
}

// writeSpans writes the traced run's spans as JSON lines under
// $BENCH_OUT/traces when BENCH_OUT is set.
func writeSpans(workload string, seed int64, tracers []*tracer) (err error) {
	dir := os.Getenv("BENCH_OUT")
	if dir == "" {
		return nil
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	for k, tr := range tracers {
		for _, s := range tr.spans {
			s.Client = k
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite maps the NaN and infinities of an empty ratio to 0 so the
// result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errf builds a check failure naming the op's class.
func errf(class, format string, args ...any) error {
	return errors.New(class + ": " + fmt.Sprintf(format, args...))
}
