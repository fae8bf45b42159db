package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ringrpq"
	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/harness"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/service"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// readLimit and readTimeout bound every read of service-mix and
// live-updates (and the query-layer probe): an interactive page of
// results, not the log's 1M cap.
const (
	readLimit   = 1000
	readTimeout = 2 * time.Second
)

// service-mix: an open loop of HTTP /query (c-to-v RPQs) and /select
// (graph patterns) requests against a 2-worker service on a loopback
// listener.
const (
	serviceWorkers    = 2
	serviceConns      = 2               // client connections at most
	serviceRate       = 200             // requests per second, below saturation
	serviceRPQs       = 200             // distinct /query requests in the pool
	servicePatterns   = 60              // distinct /select requests in the pool
	serviceSelectFrac = 0.3             // share of /select in the stream
	serviceZipf       = 1.1             // popularity skew inside each kind
	serviceResultLRU  = 64              // result-cache entries: the head hits, the tail misses
	serviceExprLRU    = 48              // expression-cache entries, likewise
	senders           = 8               // client goroutines; the transport caps connections
	poolSeed          = 3               // seeds the request pool (graph seed 1, log seed 2)
	referenceTimeout  = 5 * time.Second // bounds each set-up reference evaluation
)

// slowPatterns are the generated pool patterns (pool seed) whose warm
// reference evaluation takes 0.24–1.7 s on the reference host, against
// at most 70 ms for every other pool entry. An open loop on two
// connections needs requests of bounded cost: one such request stalls
// both connections and the tail becomes a lottery. They stay out of the
// request pool, printed and counted in service.pool_dropped; the
// query-layer probe of the traced run still times them. The list is
// fixed, not measured per run, so the pool depends neither on the
// host's speed nor on the program's.
var slowPatterns = map[string]bool{
	"?x0 ^P37 ?x1 . ?x1 P12 ?x2 . ?x2 P18 Q4983": true,
	"Q1025 P10 ?x1 . ?x1 ^P12 ?x2 . ?x2 ^P4 ?x3 . ?x3 P10 ?x4 . ?x1 P50 ?s0 . ?x1 ^P45 Q12767 . ?x1 ^P50 Q8863 . ?x1 (P12|P10)+ ?r": true,
	"?x0 ^P10 ?x1 . ?x1 P10 Q4812":              true,
	"?x0 P8 ?x1 . ?x1 ^P21 ?x2 . ?x2 ^P59 Q818": true,
}

// buildDB re-interns a generated graph through the public builder
// (completion edges are re-derived by Build).
func buildDB(g *triples.Graph) (*ringrpq.DB, error) {
	b := ringrpq.NewBuilder()
	for _, t := range g.Triples {
		if t.P >= g.NumPreds {
			continue
		}
		b.Add(g.Nodes.Name(t.S), g.Preds.Name(t.P), g.Nodes.Name(t.O))
	}
	return b.Build()
}

// endpoint renders a query endpoint for the public API ("" is a
// variable).
func endpoint(name, v string) string {
	if name == "" {
		return v
	}
	return name
}

// poolReq is one distinct request of the service-mix pool, with the
// answer computed in setup through DB.Query / DB.Select.
type poolReq struct {
	path string // "/query" or "/select"
	body []byte // wire body, untraced
	prof []byte // wire body with "profile": true
	want fingerprint
	desc string
}

// httpServer is a Service behind a loopback listener.
type httpServer struct {
	db   *ringrpq.DB
	svc  *ringrpq.Service
	srv  *http.Server
	done chan struct{}
	url  string
}

func startServer(db *ringrpq.DB, cfg ringrpq.ServiceConfig, wrap func(http.Handler) http.Handler) (*httpServer, error) {
	svc := ringrpq.NewService(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := svc.Handler(ringrpq.HandlerConfig{})
	if wrap != nil {
		h = wrap(h)
	}
	s := &httpServer{db: db, svc: svc, srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.svc.Close()
}

func runServiceMix(r *run) error {
	gc := smallGraph
	var g *triples.Graph
	var srv *httpServer
	var wrapper *traceWrapper
	if r.traced {
		wrapper = &traceWrapper{tr: r.tr}
		r.wrapper = wrapper
	}
	cfg := ringrpq.ServiceConfig{
		Workers:            serviceWorkers,
		QueueDepth:         64,
		ExprCacheEntries:   serviceExprLRU,
		ResultCacheEntries: serviceResultLRU,
	}
	var setupErr error
	timeSetup(r, func() {
		if srv != nil {
			srv.stop()
		}
		g = gc.generate()
		db, err := buildDB(g)
		if err != nil {
			setupErr = err
			return
		}
		var wrap func(http.Handler) http.Handler
		if wrapper != nil {
			wrap = wrapper.wrap
		}
		srv, setupErr = startServer(db, cfg, wrap)
	})
	if setupErr != nil {
		return setupErr
	}
	defer srv.stop()
	r.rep.addE2E("bytes_per_edge", srv.db.BytesPerEdge(), "B")

	// The pool: c-to-v RPQs from the Table 1 generator and graph
	// patterns, with reference answers from the DB itself. The pool and
	// its popularity ranking are part of the workload's definition, like
	// the dataset, and fixed; the run's seed draws the arrival times and
	// the sequence of requests.
	t0 := time.Now()
	var rpqs []workload.Query
	for _, q := range workload.Generate(g, workload.Config{Seed: poolSeed, Total: 2 * serviceRPQs}) {
		if q.ConstToVar() && len(rpqs) < serviceRPQs {
			rpqs = append(rpqs, q)
		}
	}
	pats := workload.GeneratePatterns(g, workload.PatternConfig{Seed: poolSeed + 1, Total: servicePatterns})
	var rpqPool, patPool []poolReq
	limit, dropped := readLimit, 0
	// reference evaluates one pool entry through the DB and returns the
	// fingerprint of its answer.
	reference := func(desc string, eval func() ([]string, error)) (fingerprint, error) {
		var fp fingerprint
		items, err := eval()
		if err != nil {
			return fp, fmt.Errorf("reference for %s: %w", desc, err)
		}
		for _, it := range items {
			fp.addString(it)
		}
		return fp, nil
	}
	for _, q := range rpqs {
		subj, obj, expr := endpoint(q.Subject, "?x"), endpoint(q.Object, "?y"), pathexpr.String(q.Expr)
		fp, err := reference(q.String(), func() ([]string, error) {
			sols, err := srv.db.Query(subj, expr, obj, ringrpq.WithLimit(limit), ringrpq.WithTimeout(referenceTimeout))
			out := make([]string, len(sols))
			for i, s := range sols {
				out[i] = s.Subject + "\x00" + s.Object
			}
			return out, err
		})
		if err != nil {
			return err
		}
		body, _ := json.Marshal(service.QueryJSON{Subject: subj, Expr: expr, Object: obj, Limit: &limit, Timeout: readTimeout.String()})
		prof, _ := json.Marshal(service.QueryJSON{Subject: subj, Expr: expr, Object: obj, Limit: &limit, Timeout: readTimeout.String(), Profile: true})
		rpqPool = append(rpqPool, poolReq{path: "/query", body: body, prof: prof, want: fp, desc: q.String()})
	}
	for _, p := range pats {
		if slowPatterns[p.Text] {
			fmt.Printf("pool: left out slow pattern %q\n", p.Text)
			dropped++
			continue
		}
		fp, err := reference(fmt.Sprintf("pattern %q", p.Text), func() ([]string, error) {
			_, rows, err := srv.db.Select(p.Text, ringrpq.WithLimit(limit), ringrpq.WithTimeout(referenceTimeout))
			out := make([]string, len(rows))
			for i, row := range rows {
				out[i] = strings.Join(row, "\x00")
			}
			return out, err
		})
		if err != nil {
			return err
		}
		body, _ := json.Marshal(service.SelectJSON{Query: p.Text, Limit: &limit, Timeout: readTimeout.String()})
		prof, _ := json.Marshal(service.SelectJSON{Query: p.Text, Limit: &limit, Timeout: readTimeout.String(), Profile: true})
		patPool = append(patPool, poolReq{path: "/select", body: body, prof: prof, want: fp, desc: p.Text})
	}
	fmt.Printf("reference answers: %d rpqs, %d patterns in %.3fs\n", len(rpqPool), len(patPool), time.Since(t0).Seconds())
	if dropped != len(slowPatterns) {
		fmt.Printf("pool: %d of the %d slow patterns were generated; the pattern generator changed\n", dropped, len(slowPatterns))
	}
	r.rep.addExtra("service.pool_dropped", float64(dropped), "count")

	// The schedule: arrivals at serviceRate; each picks /select
	// with serviceSelectFrac, then a pool entry by Zipf popularity over
	// a seeded permutation.
	rng := rand.New(rand.NewSource(r.seed))
	rank := rand.New(rand.NewSource(poolSeed + 2))
	pick := func(n int) func() int {
		z := rand.NewZipf(rng, serviceZipf, 1, uint64(n-1))
		perm := rank.Perm(n)
		return func() int { return perm[z.Uint64()] }
	}
	pickRPQ, pickPat := pick(len(rpqPool)), pick(len(patPool))
	type job struct {
		id  int64
		due time.Duration
		req *poolReq
	}
	// A Poisson process conditioned on its count: rate × seconds
	// arrivals at uniform random times, so every run offers the same
	// load.
	n := int(serviceRate * r.seconds.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(r.seconds)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	jobs := make([]job, n)
	for i, at := range dues {
		req := &rpqPool[pickRPQ()]
		if rng.Float64() < serviceSelectFrac {
			req = &patPool[pickPat()]
		}
		jobs[i] = job{id: int64(i + 1), due: at, req: req}
	}
	r.config["graph"] = gc
	r.config["completed_edges"] = g.Len()
	r.config["workers"] = serviceWorkers
	r.config["connections"] = serviceConns
	r.config["rate_per_s"] = serviceRate
	r.config["requests"] = len(jobs)
	r.config["pool_rpqs"], r.config["pool_patterns"] = len(rpqPool), len(patPool)
	r.config["limit"], r.config["timeout"] = readLimit, readTimeout.String()
	r.config["result_cache_entries"], r.config["expr_cache_entries"] = serviceResultLRU, serviceExprLRU

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceConns,
		MaxIdleConnsPerHost: serviceConns,
	}}
	defer client.CloseIdleConnections()

	// Warm-up, not measured: every pool entry once, in a closed loop, so
	// compiled expressions, plans and selectivity statistics exist
	// before the first measured request. The answers are checked too.
	r.rep.side = true
	for i := range rpqPool {
		doRequest(r, client, srv.url, &rpqPool[i], 0, -1, false)
	}
	for i := range patPool {
		doRequest(r, client, srv.url, &patPool[i], 0, -1, false)
	}
	r.rep.side = false
	st0 := srv.svc.Stats()

	type outcome struct {
		lat, late time.Duration
		failed    bool
		bytes     int
	}
	outs := make([]outcome, len(jobs))
	queue := make(chan int, len(jobs)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				j := jobs[i]
				due := start.Add(j.due)
				sent := time.Now()
				root := r.tr.add("request", -1, j.id, due, time.Time{})
				rt := r.tr.begin("http.roundtrip", root, j.id)
				n, failed := doRequest(r, client, srv.url, j.req, j.id, rt, r.traced)
				r.tr.end(rt)
				r.tr.end(root)
				outs[i] = outcome{lat: time.Since(due), late: sent.Sub(due), failed: failed, bytes: n}
			}
		}()
	}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)

	var lat, late latencies
	ok, totalBytes := 0, 0
	for _, o := range outs {
		r.rep.attempt(o.failed)
		lat.add(o.lat)
		late.add(o.late)
		totalBytes += o.bytes
		if !o.failed {
			ok++
		}
	}
	r.rep.addExtra("qps", float64(ok)/wall.Seconds(), "1/s")
	lat.report(r.rep, "latency", "latency_p50_ms", "latency_tail_ms", r.rep.addExtra)
	late.report(r.rep, "loadgen.late", "loadgen.late_ms_p50", "loadgen.late_ms_tail", r.rep.addExtra)
	reportServiceStats(r, st0, srv.svc.Stats())
	r.rep.addExtra("service.http_resp_bytes", float64(totalBytes)/float64(max(len(outs), 1)), "B")
	if wrapper != nil {
		r.rep.addExtra("service.http_self_ms", wrapper.selfMS(), "ms")
	}

	// Ring-vs-NavBFS on the pool's RPQs, in this process, for the
	// speedup (and a second check of the answers).
	rs := harness.NewRing(g, ring.WaveletMatrix)
	ix := bfs.New(g)
	var res passResult
	r.rep.side = true
	for i := 0; i < sidePasses; i++ {
		comparePass(r, g, rs.Engine(), ix, rpqs, readLimit, readTimeout, &res)
	}
	r.rep.side = false
	res.report(r, false)
	r.reportHeap(srv, rs, ix)

	if r.traced {
		// The query-layer probe times every generated pattern, the ones
		// over the pool's cost cap included.
		var patterns []string
		for _, p := range pats {
			patterns = append(patterns, p.Text)
		}
		probeLayers(r, g, exprsOf(rpqs), constantsOf(g, rpqs), patterns)
	}
	return nil
}

// reportServiceStats adds the service layer's counters over the
// measured window (after minus before). EvalLatency is a cumulative
// histogram, so service.eval_p50_ms includes the warm-up evaluations.
func reportServiceStats(r *run, before, after ringrpq.ServiceStats) {
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	completed := after.Completed - before.Completed
	r.rep.addExtra("service.queue_wait_ms", float64(after.QueueWaitNS-before.QueueWaitNS)/1e6/float64(max(completed, 1)), "ms")
	r.rep.addExtra("service.eval_p50_ms", after.EvalLatency.P50MS, "ms")
	r.rep.addExtra("service.result_hit_ratio", ratio(after.Hits-before.Hits, after.Misses-before.Misses), "ratio")
	r.rep.addExtra("service.expr_hit_ratio", ratio(after.ExprHits-before.ExprHits, after.ExprMisses-before.ExprMisses), "ratio")
	r.rep.addExtra("service.rejected", float64(after.Rejected-before.Rejected), "count")
	r.rep.addExtra("service.timeouts", float64(after.Timeouts-before.Timeouts), "count")
	r.rep.addExtra("service.completed", float64(completed), "count")
}

// doRequest sends one pooled request and checks the response against
// the reference: status 200, not truncated, the count, and — below the
// cap — the fingerprint of the returned set. It returns the response
// size and whether the request failed.
func doRequest(r *run, client *http.Client, base string, pr *poolReq, id int64, parent int, traced bool) (int, bool) {
	body := pr.body
	if traced {
		body = pr.prof
	}
	req, err := http.NewRequest(http.MethodPost, base+pr.path, bytes.NewReader(body))
	if err != nil {
		fmt.Printf("request %d: %v\n", id, err)
		return 0, true
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(spanHeader, strconv.Itoa(parent))
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		fmt.Printf("request %d %s: %v\n", id, pr.path, err)
		return 0, true
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Printf("request %d %s: read body: %v\n", id, pr.path, err)
		return len(data), true
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Printf("request %d %s: status %d: %s\n", id, pr.path, resp.StatusCode, bytes.TrimSpace(data))
		return len(data), true
	}
	var got fingerprint
	var truncated bool
	var count int
	var prof *obs.Profile
	if pr.path == "/query" {
		var out service.ResultJSON
		if err := json.Unmarshal(data, &out); err != nil {
			fmt.Printf("request %d: decode: %v\n", id, err)
			return len(data), true
		}
		for _, s := range out.Solutions {
			got.addString(s.Subject + "\x00" + s.Object)
		}
		truncated, count, prof = out.Truncated, out.Count, out.Profile
	} else {
		var out service.SelectResultJSON
		if err := json.Unmarshal(data, &out); err != nil {
			fmt.Printf("request %d: decode: %v\n", id, err)
			return len(data), true
		}
		for _, row := range out.Rows {
			got.addString(strings.Join(row, "\x00"))
		}
		truncated, count, prof = out.Truncated, out.Count, out.Profile
	}
	if traced {
		r.wrapper.attach(prof, id)
	}
	switch {
	case truncated:
		fmt.Printf("request %d %s: truncated response\n", id, pr.path)
		return len(data), true
	case count != pr.want.n || got.n != pr.want.n:
		r.rep.mismatch("%s %s: %d results (count %d), want %d", pr.path, pr.desc, got.n, count, pr.want.n)
		return len(data), true
	case got.n < readLimit && got != pr.want:
		r.rep.mismatch("%s %s: result set differs from the reference", pr.path, pr.desc)
		return len(data), true
	}
	return len(data), false
}

// Headers that link the server-side spans of a traced run to the
// client's round-trip span.
const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

// traceWrapper records a serve_http span around the service's handler
// and attaches the spans the program returns through the request
// profile beneath it.
type traceWrapper struct {
	tr *tracer

	mu     sync.Mutex
	serve  map[int64]int // request id -> serve_http span
	selfNS []float64     // serve_http minus the service's request span
}

func (w *traceWrapper) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, perr := strconv.Atoi(req.Header.Get(spanHeader))
		id, ierr := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		if perr != nil || ierr != nil {
			h.ServeHTTP(rw, req) // an untraced request (the warm-up)
			return
		}
		sp := w.tr.begin("serve_http", parent, id)
		h.ServeHTTP(rw, req)
		w.tr.end(sp)
		w.mu.Lock()
		if w.serve == nil {
			w.serve = map[int64]int{}
		}
		w.serve[id] = sp
		w.mu.Unlock()
	})
}

// attach adds a profile's span tree under the request's serve_http
// span. The profile's clock starts inside the handler; its root is
// anchored at the serve_http start, so the handler's own time (decode
// before, write after) is serve_http's self time.
func (w *traceWrapper) attach(prof *obs.Profile, id int64) {
	if w == nil || prof == nil {
		return
	}
	w.mu.Lock()
	sp, ok := w.serve[id]
	delete(w.serve, id)
	w.mu.Unlock()
	if !ok {
		return
	}
	w.tr.mu.Lock()
	serve := w.tr.spans[sp]
	w.tr.mu.Unlock()
	var svcUS float64
	var walk func(n *obs.SpanNode, parent int, base float64)
	walk = func(n *obs.SpanNode, parent int, base float64) {
		s := w.tr.addUS("svc."+n.Kind, parent, id, base+n.StartUS, base+n.StartUS+n.DurationUS)
		for _, c := range n.Children {
			walk(c, s, base)
		}
	}
	for _, root := range prof.Spans {
		base := serve.Start - root.StartUS
		walk(root, sp, base)
		svcUS += root.DurationUS
	}
	w.mu.Lock()
	w.selfNS = append(w.selfNS, (serve.End-serve.Start-svcUS)*1e3)
	w.mu.Unlock()
}

// selfMS is the median time the HTTP layer adds around the service.
func (w *traceWrapper) selfMS() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return median(w.selfNS) / 1e6
}
