package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/serve"
)

// The serve workload: the query service with its default tenants and no
// chaos, driven in-process through serve.HandlerDoer by two closed-loop
// clients (the fewest that make the plan-cache mutex, Recorder.Absorb
// and admission contend). Four request classes, the first three for the
// standard tenant:
//
//   - hot: exact /v1/query with execute over 8 databases. After warm-up
//     every one is a plan-cache hit, so decode, fingerprint, cache
//     lookup and JSON encoding dominate and the engine does little.
//   - cold: the same request cycling through 300 databases, more than
//     the cache's 256 entries, so each one misses, runs the DP rung,
//     fills the cache and evicts an entry. Cold writes race hot reads.
//   - histogram: planMode "histogram" queries with execute (noCache, so
//     each one plans from histograms).
//   - analyze: /v1/analyze, the exact four-space analysis, over 96
//     databases for the premium tenant, whose budgets leave room for
//     databases heavier than the cold ones.
//
// The shares put p50 inside the hot class and p90 inside the analyze
// class, the slowest. Every database has its own plan-cache fingerprint
// (a draw that repeats one is replaced), so a cold request can only miss.

const (
	serveHot       = 8
	serveCold      = 300
	serveHistogram = 16
	serveAnalyze   = 96
	// serveBudgetShare bounds what one request may spend of its tenant's
	// tuple and state budgets, so no request comes near a trip.
	serveBudgetShare = 0.25
)

// servePattern is one pass: 13 hot, 2 cold, 1 histogram, 4 analyze.
// Hot requests are the fastest and analyses the slowest, so p50 falls
// inside the hot block (0-65%) and p90 in the middle of the analyze
// block (80-100%).
var servePattern = []string{
	"hot", "hot", "analyze", "hot", "cold", "hot", "hot", "analyze", "hot", "histogram",
	"hot", "hot", "analyze", "hot", "cold", "hot", "hot", "analyze", "hot", "hot",
}

// serveReq is one request template and its expected answer.
type serveReq struct {
	path   string
	body   []byte
	tenant serve.TenantClass
	// rung, cost and size are the library's answer for the database.
	rung string
	cost int64
	size int
}

type serveBench struct {
	srv  *serve.Server
	doer serve.HandlerDoer
	dbs  map[string][]*database.Database
	reqs map[string][]serveReq
}

// serveClass describes how one class's databases are drawn.
type serveClass struct {
	name, path, mode string
	tenant           string
	count            int
	noCache          bool
	draw             func(rng *rand.Rand, k int) *database.Database
}

var serveClasses = []serveClass{
	{name: "hot", path: "/v1/query", tenant: "standard", count: serveHot, draw: func(rng *rand.Rand, k int) *database.Database {
		return gen.Uniform(rng, gen.Schemes([]gen.Shape{gen.Chain, gen.Star}[k%2], 5), 25, 25)
	}},
	{name: "cold", path: "/v1/query", tenant: "standard", count: serveCold, draw: func(rng *rand.Rand, k int) *database.Database {
		return gen.Uniform(rng, gen.RandomConnectedSchemes(rng, 5, 0.2), 15, 5)
	}},
	{name: "histogram", path: "/v1/query", tenant: "standard", mode: "histogram", noCache: true, count: serveHistogram,
		draw: func(rng *rand.Rand, k int) *database.Database {
			return gen.Uniform(rng, gen.Schemes([]gen.Shape{gen.Chain, gen.Cycle}[k%2], 5), 60, 60)
		}},
	{name: "analyze", path: "/v1/analyze", tenant: "premium", count: serveAnalyze,
		draw: func(rng *rand.Rand, k int) *database.Database {
			return gen.Uniform(rng, gen.Schemes([]gen.Shape{gen.Chain, gen.Star, gen.Cycle}[k%3], 6), 20, 5)
		}},
}

func buildServe(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	srv, err := serve.New(serve.Config{Recorder: obs.NewRecorder()})
	if err != nil {
		return nil, err
	}
	b := &serveBench{srv: srv, doer: serve.HandlerDoer{Handler: srv.Handler()},
		dbs: map[string][]*database.Database{}, reqs: map[string][]serveReq{}}
	tenants := map[string]serve.TenantClass{}
	for _, tc := range serve.DefaultTenants() {
		tenants[tc.Name] = tc
	}
	seen := map[core.Fingerprint]bool{}
	for _, cl := range serveClasses {
		for k := 0; k < cl.count; k++ {
			var db *database.Database
			for try := 0; ; try++ {
				if try == 100 {
					return nil, fmt.Errorf("%s database %d: no draw with a new fingerprint", cl.name, k)
				}
				db = cl.draw(rng, k)
				if fp := core.FingerprintDB(db); !seen[fp] {
					seen[fp] = true
					break
				}
			}
			body, err := serve.BuildRequestBodyMode(db, cl.tenant, cl.path == "/v1/query", cl.noCache, cl.mode)
			if err != nil {
				return nil, err
			}
			b.dbs[cl.name] = append(b.dbs[cl.name], db)
			b.reqs[cl.name] = append(b.reqs[cl.name], serveReq{path: cl.path, body: body, tenant: tenants[cl.tenant]})
		}
	}
	return b, nil
}

// reference computes each request's answer with the library on the
// database the server will decode: optimizer.Optimize for exact queries
// and analyses, the histogram model DP for histogram queries, each plan
// replayed with relation.Join for its τ and result size. It also
// requires each exact run's guard spend to stay within serveBudgetShare
// of the tenant's budgets.
func (b *serveBench) reference() error {
	for cls, reqs := range b.reqs {
		for k := range reqs {
			r := &reqs[k]
			_, db, err := serve.DecodeRequest(bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			switch cls {
			case "histogram":
				hc := estimate.NewHistogramCatalog(db)
				res, err := optimizer.OptimizeModel(db, hc.Size, optimizer.SpaceAll)
				if err != nil {
					return err
				}
				out, tau := replay(db, res.Strategy, relation.Join)
				r.rung, r.cost, r.size = "estimate", tau, out.Size()
			default:
				g := guard.New(context.Background(), guard.Limits{})
				ev := database.NewEvaluator(db).WithGuard(g)
				res, err := optimizer.Optimize(ev, optimizer.SpaceAll)
				if err != nil {
					return err
				}
				if cls == "analyze" {
					if _, err := core.AnalyzeEvaluator(ev); err != nil {
						return err
					}
				}
				out, tau := replay(db, res.Strategy, relation.Join)
				if tau != int64(res.Cost) {
					return fmt.Errorf("%s %d: optimizer τ=%d, replay τ=%d", cls, k, res.Cost, tau)
				}
				s := g.Snapshot()
				if float64(s.Tuples.Spent) > serveBudgetShare*float64(r.tenant.MaxTuples) ||
					float64(s.States.Spent) > serveBudgetShare*float64(r.tenant.MaxStates) {
					return fmt.Errorf("%s %d: spends %d tuples and %d states, over %.0f%% of the %s budgets",
						cls, k, s.Tuples.Spent, s.States.Spent, 100*serveBudgetShare, r.tenant.Name)
				}
				r.rung, r.cost, r.size = "dp", int64(res.Cost), out.Size()
			}
		}
	}
	return nil
}

func (b *serveBench) passLen() int { return len(servePattern) }

// warmupOps covers every hot database several times, filling the plan
// cache.
func (b *serveBench) warmupOps() int { return 20 * len(servePattern) }

func (b *serveBench) class(i int) string { return servePattern[i%len(servePattern)] }

func (b *serveBench) at(i int) (string, *serveReq) {
	cls, n := ordinal(servePattern, i)
	reqs := b.reqs[cls]
	return cls, &reqs[n%len(reqs)]
}

// serveOutcome is one response as the client saw it.
type serveOutcome struct {
	res *serve.DoResult
	err error
}

func (b *serveBench) run(i int) any {
	_, r := b.at(i)
	res, err := b.doer.Do(context.Background(), http.MethodPost, r.path, r.body)
	return serveOutcome{res, err}
}

// serveAnswer is the part of a response the check reads.
type serveAnswer struct {
	Rung       string `json:"rung"`
	Degraded   bool   `json:"degraded"`
	CacheHit   bool   `json:"cacheHit"`
	ResultSize *int   `json:"resultSize"`
	Plan       struct {
		Cost int64 `json:"cost"`
	} `json:"plan"`
	Guard guard.Snapshot `json:"guard"`
}

// check requires HTTP 200, no degradation, the expected rung and cache
// outcome, and the library's plan cost and result size.
func (b *serveBench) check(i int, out any) (int64, error) {
	cls, r := b.at(i)
	o, ok := out.(serveOutcome)
	if !ok || o.err != nil {
		return 0, errf(cls, "request failed: %v", o.err)
	}
	if o.res.Status != http.StatusOK {
		return 0, errf(cls, "HTTP %d: %s", o.res.Status, o.res.Body)
	}
	var a serveAnswer
	if err := json.Unmarshal(o.res.Body, &a); err != nil {
		return 0, errf(cls, "decoding response: %v", err)
	}
	switch {
	case a.Degraded:
		return 0, errf(cls, "degraded answer from rung %s", a.Rung)
	case a.Rung != r.rung:
		return 0, errf(cls, "rung %s, expected %s", a.Rung, r.rung)
	case a.Plan.Cost != r.cost:
		return 0, errf(cls, "plan cost %d, library %d", a.Plan.Cost, r.cost)
	case a.ResultSize == nil || *a.ResultSize != r.size:
		return 0, errf(cls, "result size %v, library %d", a.ResultSize, r.size)
	case cls == "cold" && a.CacheHit:
		return 0, errf(cls, "plan-cache hit on a cold database")
	case cls == "hot" && !a.CacheHit && i >= b.warmupOps():
		return 0, errf(cls, "plan-cache miss on a hot database after warm-up")
	case float64(a.Guard.Tuples.Spent) > serveBudgetShare*float64(r.tenant.MaxTuples):
		return 0, errf(cls, "spent %d tuples, over %.0f%% of the budget", a.Guard.Tuples.Spent, 100*serveBudgetShare)
	}
	return a.Plan.Cost, nil
}

// traced decodes the body with serve.DecodeRequest and fingerprints the
// database (probes of what the handler does first), then sends the
// request. Once the op has ended, the response's own span tree supplies
// the admission, optimize and execute children of the serve.request
// span, whose self time is then the handler's remaining path (decode,
// fingerprint, cache lookup, encoding).
func (b *serveBench) traced(i int, tr *tracer, c *counts) (any, func() error) {
	cls, r := b.at(i)
	var db *database.Database
	tr.probe("serve.decode", func() {
		_, db, _ = serve.DecodeRequest(bytes.NewReader(r.body))
	})
	if db != nil {
		tr.probe("core.fingerprint", func() { core.FingerprintDB(db) })
	}
	var out serveOutcome
	idx := tr.begin("serve.request", false)
	out.res, out.err = b.doer.Do(context.Background(), http.MethodPost, r.path, r.body)
	tr.end(idx)
	return out, func() error {
		if out.err != nil || out.res.Status != http.StatusOK {
			return nil
		}
		var a struct {
			Trace *serve.TraceInfo `json:"trace"`
		}
		if err := json.Unmarshal(out.res.Body, &a); err != nil || a.Trace == nil {
			return fmt.Errorf("%s: response carries no trace", cls)
		}
		sp := tr.spans[idx]
		var engine int64
		for _, s := range a.Trace.Spans {
			var name string
			switch s.Name {
			case obs.SpanAdmission:
				name = "serve.admission"
			case obs.SpanOptimize:
				name = "serve.optimize"
				engine += s.DurNS
			case obs.SpanExecute:
				name = "serve.execute"
				engine += s.DurNS
			default:
				continue
			}
			tr.attach(idx, name, sp.Start, sp.Start+s.DurNS)
		}
		c.add("serve.response_bytes", float64(len(out.res.Body)))
		if cls == "hot" {
			c.add("serve.hot_request_ns", float64(sp.End-sp.Start))
			c.add("serve.hot_engine_ns", float64(engine))
		}
		return nil
	}
}

// programCounters reads the server's plan-cache counters.
func (b *serveBench) programCounters() map[string]float64 {
	cnt := b.srv.Recorder().Snapshot().Counters
	return map[string]float64{
		"serve.cache_hits":      float64(cnt[obs.MetricServeCacheHit]),
		"serve.cache_misses":    float64(cnt[obs.MetricServeCacheMiss]),
		"serve.cache_evictions": float64(cnt[obs.MetricServeCacheEvict]),
	}
}

func (b *serveBench) fingerprints() []core.Fingerprint {
	var out []core.Fingerprint
	for _, cl := range serveClasses {
		for _, db := range b.dbs[cl.name] {
			out = append(out, core.FingerprintDB(db))
		}
	}
	return out
}

func (b *serveBench) properties() map[string]float64 {
	return map[string]float64{
		"property.hot_share":  share(servePattern, "hot"),
		"property.cold_share": share(servePattern, "cold"),
	}
}
