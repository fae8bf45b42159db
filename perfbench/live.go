package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq"
	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/harness"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// live-updates: workload.GenerateMixed over a durable database (fsync
// "always", WAL in a temporary directory inside the output directory),
// served in-process by a Service, with one reader and one writer each in
// a closed loop.
const (
	liveFsync        = "always"
	liveOps          = 8000 // generated operations; the batches outlast a run
	liveReads        = 300  // distinct c-to-v reads the reader cycles through
	liveWriteRatio   = 0.5
	liveBatch        = 16
	liveDeleteFrac   = 0.2
	liveCompactAt    = 6000 // overlay weight that triggers a compaction
	liveSample       = 20   // reads re-checked after the reopen
	liveSamplePeriod = 2 * time.Millisecond
)

// liveRead is one c-to-v read of the mixed stream in public-API form.
type liveRead struct {
	q               workload.Query
	subj, expr, obj string
}

// durable is one OpenDurable'd database with its service.
type durable struct {
	dir string
	db  *ringrpq.DB
	svc *ringrpq.Service
}

func openLive(r *run, g *triples.Graph) (*durable, error) {
	dir, err := os.MkdirTemp(r.outDir, "wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	db, err := ringrpq.OpenDurable(ringrpq.WALConfig{Dir: dir, Fsync: liveFsync}, func() (*ringrpq.DB, error) { return buildDB(g) })
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open durable: %w", err)
	}
	db.SetCompactionThreshold(liveCompactAt)
	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{
		Workers: serviceWorkers,
		// Reads must take the overlay path every time, not the cache.
		ResultCacheEntries: -1,
		ResultCacheBytes:   -1,
	})
	return &durable{dir: dir, db: db, svc: svc}, nil
}

// waitCompaction blocks until no compaction is in flight.
func waitCompaction(db *ringrpq.DB) {
	for db.UpdateStats().Compacting {
		time.Sleep(time.Millisecond)
	}
}

// close stops the service and the WAL; remove also deletes the
// directory.
func (d *durable) close(remove bool) error {
	d.svc.Close()
	waitCompaction(d.db)
	err := d.db.CloseWAL()
	if remove {
		os.RemoveAll(d.dir)
	}
	return err
}

func runLiveUpdates(r *run) error {
	gc := smallGraph
	var g *triples.Graph
	var d *durable
	var setupErr error
	timeSetup(r, func() {
		if d != nil {
			d.close(true)
		}
		g = gc.generate()
		d, setupErr = openLive(r, g)
	})
	if setupErr != nil {
		return setupErr
	}
	defer func() {
		if d != nil {
			d.close(true)
		}
	}()

	// The reads are fixed (pool seed), like service-mix's pool; the
	// run's seed draws the update stream.
	mixed := func(seed int64) []workload.MixedOp {
		return workload.GenerateMixed(g, workload.MixedConfig{
			Seed: seed, Total: liveOps, WriteRatio: liveWriteRatio, BatchSize: liveBatch, DeleteFrac: liveDeleteFrac,
		})
	}
	var reads []liveRead
	for _, op := range mixed(poolSeed) {
		// v-to-v reads hit the 1M cap; log-v2v measures those.
		if !op.IsUpdate() && op.Query.ConstToVar() && len(reads) < liveReads {
			q := *op.Query
			reads = append(reads, liveRead{q: q, subj: endpoint(q.Subject, "?x"), expr: pathexpr.String(q.Expr), obj: endpoint(q.Object, "?y")})
		}
	}
	var batches []workload.MixedOp
	for _, op := range mixed(r.seed) {
		if op.IsUpdate() {
			batches = append(batches, op)
		}
	}
	r.config["graph"] = gc
	r.config["completed_edges"] = g.Len()
	r.config["fsync"] = liveFsync
	r.config["reads"], r.config["batches"], r.config["batch_size"] = len(reads), len(batches), liveBatch
	r.config["compaction_threshold"] = liveCompactAt
	r.config["limit"], r.config["timeout"] = readLimit, readTimeout.String()
	r.config["readers"], r.config["writers"] = 1, 1

	ctx := context.Background()
	opts := []ringrpq.QueryOption{ringrpq.WithLimit(readLimit), ringrpq.WithTimeout(readTimeout)}
	read := func(i int, parent int) (time.Duration, []ringrpq.Solution, error) {
		lr := reads[i%len(reads)]
		sp := r.tr.begin("read", parent, int64(i+1))
		t0 := time.Now()
		sols, err := d.svc.Query(ctx, lr.subj, lr.expr, lr.obj, opts...)
		dur := time.Since(t0)
		r.tr.end(sp)
		return dur, sols, err
	}

	// Before the first write: the distinct reads once each, on the clean
	// ring, as the baseline of overlay.read_slowdown.
	pre := r.tr.begin("phase.before_writes", -1, 0)
	before := make([]float64, 0, len(reads))
	for i := range reads {
		dur, _, err := read(i, pre)
		if err != nil {
			return fmt.Errorf("read before writes: %s: %w", reads[i].q, err)
		}
		before = append(before, ms(dur))
	}
	r.tr.end(pre)

	// Ring-vs-NavBFS on the same reads, for the speedup.
	rs := harness.NewRing(g, ring.WaveletMatrix)
	ix := bfs.New(g)
	qs := make([]workload.Query, len(reads))
	for i, lr := range reads {
		qs[i] = lr.q
	}
	var res passResult
	r.rep.side = true
	for i := 0; i < sidePasses; i++ {
		comparePass(r, g, rs.Engine(), ix, qs, readLimit, readTimeout, &res)
	}
	r.rep.side = false
	res.report(r, false)

	// The mixed phase: one reader and one writer in closed loops, and a
	// sampler of the update counters.
	var (
		stop                     atomic.Bool
		wg                       sync.WaitGroup
		readLat, updLat          latencies
		readsOK, readsFailed     int
		batchesOK, batchesFailed int
		payload                  int64
		overlayMax, tombMax      int
		rebuilds                 []float64
		swapMax                  time.Duration
		compactions0             = d.db.UpdateStats().Compactions
		wal0                     = d.db.WALStats()
	)
	phase := r.tr.begin("phase.mixed", -1, 0)
	start := time.Now()
	wg.Add(3)
	go func() { // reader
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			dur, _, err := read(i, phase)
			if err != nil {
				readsFailed++
				fmt.Printf("read %s: %v\n", reads[i%len(reads)].q, err)
				dur = readTimeout
			} else {
				readsOK++
			}
			readLat.add(dur)
		}
	}()
	go func() { // writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i == len(batches) {
				fmt.Println("writer: generated batches exhausted")
				return
			}
			op := batches[i]
			adds, dels := toTriples(op.Adds), toTriples(op.Dels)
			for _, t := range append(adds, dels...) {
				payload += int64(len(t.Subject) + len(t.Predicate) + len(t.Object))
			}
			sp := r.tr.begin("update", phase, int64(i+1))
			t0 := time.Now()
			_, err := d.svc.Update(ctx, adds, dels)
			dur := time.Since(t0)
			r.tr.end(sp)
			if err != nil {
				batchesFailed++
				fmt.Printf("update batch %d: %v\n", i, err)
				continue
			}
			batchesOK++
			updLat.add(dur) // acknowledged batches only
		}
	}()
	go func() { // sampler
		defer wg.Done()
		lastC := compactions0
		for !stop.Load() {
			st := d.db.UpdateStats()
			overlayMax = max(overlayMax, st.OverlayEdges)
			tombMax = max(tombMax, st.Tombstones)
			swapMax = max(swapMax, st.LastSwapPause)
			if st.Compactions != lastC {
				lastC = st.Compactions
				rebuilds = append(rebuilds, ms(st.LastCompaction))
			}
			time.Sleep(liveSamplePeriod)
		}
	}()
	time.Sleep(r.seconds)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	r.tr.end(phase)
	waitCompaction(d.db)
	ust := d.db.UpdateStats()
	walSt := d.db.WALStats()
	svcSt := d.svc.Stats()

	for i := 0; i < readsOK+readsFailed; i++ {
		r.rep.attempt(i < readsFailed)
	}
	for i := 0; i < batchesOK+batchesFailed; i++ {
		r.rep.attempt(i < batchesFailed)
	}
	r.rep.addExtra("qps", float64(readsOK)/wall.Seconds(), "1/s")
	readLat.report(r.rep, "latency", "latency_p50_ms", "latency_tail_ms", r.rep.addExtra)
	updLat.report(r.rep, "update", "update_p50_ms", "update_tail_ms", r.rep.addExtra)
	r.rep.addE2E("bytes_per_edge", d.db.BytesPerEdge(), "B")
	sorted := append([]float64(nil), readLat.xs...)
	sort.Float64s(sorted)
	sort.Float64s(before)
	r.rep.addExtra("overlay.read_slowdown", quantile(sorted, 0.5)/quantile(before, 0.5), "x")
	r.rep.addExtra("overlay.edges_max", float64(overlayMax), "count")
	r.rep.addExtra("overlay.tombstones_max", float64(tombMax), "count")
	r.rep.addExtra("ringrpq.compactions", float64(ust.Compactions-compactions0), "count")
	r.rep.addExtra("ringrpq.rebuild_ms", median(rebuilds), "ms")
	r.rep.addExtra("ringrpq.swap_pause_ms_max", ms(swapMax), "ms")
	r.rep.addExtra("wal.bytes_per_user_byte", float64(walSt.AppendedBytes-wal0.AppendedBytes)/float64(max(payload, 1)), "ratio")
	r.rep.addExtra("wal.fsyncs_per_batch", float64(walSt.Fsyncs-wal0.Fsyncs)/float64(max(batchesOK, 1)), "ratio")
	r.rep.addExtra("service.rejected", float64(svcSt.Rejected), "count")
	r.rep.addExtra("service.timeouts", float64(svcSt.Timeouts), "count")
	r.rep.addExtra("update_batches", float64(batchesOK), "count")
	r.reportHeap(d, rs, ix)

	// Durability: close, reopen the same directory, and check the
	// version and a fixed sample of reads.
	want := make([]fingerprint, liveSample)
	for i := range want {
		want[i] = solutionsFP(d.svc.Query(ctx, reads[i%len(reads)].subj, reads[i%len(reads)].expr, reads[i%len(reads)].obj, opts...))
	}
	version := d.db.DataVersion()
	if err := d.close(false); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	t0 := time.Now()
	db, err := ringrpq.OpenDurable(ringrpq.WALConfig{Dir: d.dir, Fsync: liveFsync}, func() (*ringrpq.DB, error) {
		return nil, errors.New("reopen must recover, not rebuild")
	})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.rep.addExtra("ringrpq.recovery_s", time.Since(t0).Seconds(), "s")
	d.db = db
	d.svc = ringrpq.NewService(db, ringrpq.ServiceConfig{Workers: serviceWorkers, ResultCacheEntries: -1, ResultCacheBytes: -1})
	bad := 0
	if got := db.DataVersion(); got != version {
		r.rep.mismatch("reopened data version %d, want %d", got, version)
		bad++
	}
	for i := range want {
		lr := reads[i%len(reads)]
		if got := solutionsFP(d.svc.Query(ctx, lr.subj, lr.expr, lr.obj, opts...)); got != want[i] {
			r.rep.mismatch("after reopen %s: %d results, want %d (same set: %v)", lr.q, got.n, want[i].n, got == want[i])
			bad++
		}
	}
	fmt.Printf("durability: version %d, %d sample reads, %d mismatches\n", version, len(want), bad)
	r.rep.attempt(bad > 0)

	if r.traced {
		probeLayers(r, g, exprsOf(qs), constantsOf(g, qs), nil)
	}
	return nil
}

// solutionsFP digests a query's answer; an error gives a fingerprint
// with n = -1 so it never matches a real answer.
func solutionsFP(sols []ringrpq.Solution, err error) fingerprint {
	var fp fingerprint
	if err != nil {
		fp.n = -1
		return fp
	}
	for _, s := range sols {
		fp.addString(s.Subject + "\x00" + s.Object)
	}
	return fp
}

func toTriples(ts []workload.UpdateTriple) []ringrpq.Triple {
	out := make([]ringrpq.Triple, len(ts))
	for i, t := range ts {
		out[i] = ringrpq.Triple{Subject: t.S, Predicate: t.P, Object: t.O}
	}
	return out
}
