package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/service"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// poolStats summarises one service-pool pass.
type poolStats struct {
	WallS       float64 `json:"wall_s"`
	QPS         float64 `json:"qps"`
	MeanUs      float64 `json:"mean_us"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	Timeouts    int     `json:"timeouts"`
	GroupedJobs int64   `json:"grouped_jobs"`
	DedupedJobs int64   `json:"deduped_jobs"`
}

// groupingReport compares the service pool with and without
// cross-query traversal grouping under identical concurrent load.
type groupingReport struct {
	Workers   int       `json:"workers"`
	Clients   int       `json:"clients"`
	BatchSize int       `json:"batch_size"`
	Ungrouped poolStats `json:"ungrouped"`
	Grouped   poolStats `json:"grouped"`
	QPSRatio  float64   `json:"qps_ratio"`
}

// groupingBench is the -grouping JSON schema: the grouping comparison
// plus the run configuration.
type groupingBench struct {
	Bench    string         `json:"bench"`
	Config   benchConfig    `json:"config"`
	Grouping groupingReport `json:"grouping"`
}

// runGroupingBench runs runGroupingComparison over the query log and
// writes the JSON report to path.
func runGroupingBench(g *triples.Graph, qs []workload.Query, timeout time.Duration, limit int, workers int, path string, cfg benchConfig) {
	report := groupingBench{
		Bench:    "service pool with vs without cross-query traversal grouping",
		Config:   cfg,
		Grouping: runGroupingComparison(g, ring.New(g, ring.WaveletMatrix), qs, timeout, limit, workers),
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding %s: %v\n", path, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s\n", path)
}

// EvalGroup implements service.GroupBackend over the pool backend's
// single engine, letting the rpqbench service pool opt in to shared
// traversals exactly like ringrpq.DB's backend does.
func (b *poolBackend) EvalGroup(reqs []service.GroupRequest) []error {
	errs := make([]error, len(reqs))
	gqs := make([]*core.GroupQuery, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, req := range reqs {
		q := core.Query{Subject: core.Variable, Object: core.Variable, Expr: req.Expr}
		if !strings.HasPrefix(req.Subject, "?") {
			id, ok := b.g.Nodes.Lookup(req.Subject)
			if !ok {
				continue // unknown endpoint: no solutions, nil error
			}
			q.Subject = int64(id)
		}
		if !strings.HasPrefix(req.Object, "?") {
			id, ok := b.g.Nodes.Lookup(req.Object)
			if !ok {
				continue
			}
			q.Object = int64(id)
		}
		emit := req.Emit
		gqs = append(gqs, &core.GroupQuery{
			Query: q,
			Opts:  core.Options{Limit: req.Limit, Timeout: req.Timeout},
			Emit: func(s, o uint32) bool {
				return emit(service.Solution{Subject: b.g.Nodes.Name(s), Object: b.g.Nodes.Name(o)})
			},
		})
		idx = append(idx, i)
	}
	if len(gqs) == 0 {
		return errs
	}
	b.e.EvalGroup(gqs)
	for j, gq := range gqs {
		errs[idx[j]] = gq.Err
	}
	return errs
}

// runGroupingComparison drives the query log through the concurrent
// service pool twice — cross-query traversal grouping off, then on —
// under identical load, with the result cache disabled so both passes
// measure evaluation rather than caching. The request stream is
// zipf-sampled from the distinct query log (seeded, identical across
// both passes): real query logs are heavily skewed toward a small hot
// set, and the skew is what gives the grouping worker identical
// in-flight queries to coalesce and compatible ones to share descents
// with. Clients submit through
// service.Batch in chunks of GroupMax: Batch enqueues a
// whole chunk before waiting, so queued work exists for the grouping
// workers to drain even on a single-core host (individual blocking
// Count calls ping-pong with the workers there and the queue never
// backs up). GroupMax is raised to 32 for both passes — the wider
// drain window is what lets the grouping worker catch the stream's
// duplicates in flight. The per-request deadline is 8× the query
// timeout: the pool runs saturated for the whole pass, so queue wait
// dominates the budget, and jobs dying in the queue would measure
// timeout churn rather than throughput. Each service gets one untimed
// warm-up pass (compilation memos, scratch growth) before its measured
// pass. Reported latency is per chunk: the time its submitting client
// waited for the whole chunk, identical in shape across both modes.
func runGroupingComparison(g *triples.Graph, r *ring.Ring, qs []workload.Query, timeout time.Duration, limit int, workers int) groupingReport {
	const batchSize = 32 // also the services' GroupMax
	clients := 4 * workers
	rep := groupingReport{Workers: workers, Clients: clients, BatchSize: batchSize}
	if len(qs) == 0 {
		return rep
	}
	reqs := make([]service.Request, len(qs))
	for i, q := range qs {
		subject, object := q.Subject, q.Object
		if subject == "" {
			subject = "?s"
		}
		if object == "" {
			object = "?o"
		}
		reqs[i] = service.Request{
			Subject: subject, Expr: pathexpr.String(q.Expr), Object: object,
			Limit: limit, Count: true,
		}
	}
	// Zipf-skewed stream over the distinct queries (s=1.1), 4 draws per
	// distinct query, fixed seed so both modes replay the same stream.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(reqs)-1))
	stream := make([]service.Request, 4*len(reqs))
	for i := range stream {
		stream[i] = reqs[zipf.Uint64()]
	}
	var chunks [][]service.Request
	for i := 0; i < len(stream); i += batchSize {
		end := i + batchSize
		if end > len(stream) {
			end = len(stream)
		}
		chunks = append(chunks, stream[i:end])
	}

	fmt.Printf("  grouping: %d workers, %d clients, %d zipf-sampled requests over %d distinct queries, %d batches of ≤%d, result cache off\n",
		workers, clients, len(stream), len(reqs), len(chunks), batchSize)
	for _, grouped := range []bool{false, true} {
		svc := service.New(newPoolBackend(g, r), service.Config{
			Workers:            workers,
			QueueDepth:         clients * batchSize,
			DefaultTimeout:     8 * timeout,
			ResultCacheEntries: -1,
			ResultCacheBytes:   -1,
			GroupTraversals:    grouped,
			GroupMax:           batchSize,
		})
		for pass := 0; pass < 2; pass++ { // pass 0 warms, pass 1 measures
			lat := make([]time.Duration, len(chunks))
			var next, timeouts atomic.Int64
			ctx := context.Background()
			start := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(chunks) {
							return
						}
						t0 := time.Now()
						results := svc.Batch(ctx, chunks[i])
						lat[i] = time.Since(t0)
						for j, res := range results {
							if errors.Is(res.Err, core.ErrTimeout) {
								timeouts.Add(1)
							} else if res.Err != nil {
								fmt.Fprintf(os.Stderr, "grouping: query %d: %v\n", i*batchSize+j, res.Err)
							}
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			if pass == 0 {
				continue
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			var total time.Duration
			for _, d := range lat {
				total += d
			}
			ps := poolStats{
				WallS:       elapsed.Seconds(),
				QPS:         float64(len(stream)) / elapsed.Seconds(),
				MeanUs:      float64(total.Microseconds()) / float64(len(lat)),
				P50us:       float64(lat[len(lat)/2].Microseconds()),
				P95us:       float64(lat[len(lat)*95/100].Microseconds()),
				Timeouts:    int(timeouts.Load()),
				GroupedJobs: svc.Stats().Grouped,
				DedupedJobs: svc.Stats().Deduped,
			}
			mode := "ungrouped"
			if grouped {
				rep.Grouped = ps
				mode = "grouped"
			} else {
				rep.Ungrouped = ps
			}
			fmt.Printf("    %-9s %8.2fs wall  %10.1f queries/sec  batch p50 %8.0fµs  p95 %8.0fµs  timeouts %d  grouped %d  deduped %d\n",
				mode, ps.WallS, ps.QPS, ps.P50us, ps.P95us, ps.Timeouts, ps.GroupedJobs, ps.DedupedJobs)
		}
		svc.Close()
	}
	if rep.Grouped.QPS > 0 && rep.Ungrouped.QPS > 0 {
		rep.QPSRatio = rep.Grouped.QPS / rep.Ungrouped.QPS
	}
	return rep
}
