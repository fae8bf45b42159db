package main

import (
	"fmt"
	"math/rand"
	"time"

	"ringrpq/internal/bitvec"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
	"ringrpq/internal/workload"
)

// probeTime is how long each micro probe runs per round; the reported
// figure is the median of probeRounds rounds.
const (
	probeTime   = 150 * time.Millisecond
	probeRounds = 5
	// probePatternCount is the number of graph patterns generated for
	// the query-layer probe on workloads that serve none.
	probePatternCount = 30
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeLayers measures the layers below Eval by timing calls into each
// layer's public functions on the workload's own ring, expressions,
// constants and (when given) graph patterns. It runs only in the traced
// run; each probe is one span.
func probeLayers(r *run, g *triples.Graph, exprs []pathexpr.Node, consts []uint32, patterns []string) {
	rng := rand.New(rand.NewSource(r.seed + 1000))
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }

	// ring.build_s: ring.New on the workload's graph.
	sp := r.tr.begin("probe.ring_build", -1, 0)
	var builds []float64
	var rg *ring.Ring
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rg = ring.New(g, ring.WaveletMatrix)
		builds = append(builds, time.Since(t0).Seconds())
	}
	r.tr.end(sp)
	r.rep.addLayer("ring.build_s", median(builds), "s")

	// bitvec.rank1_ns: Rank1 at random positions of a random vector as
	// long as one ring level.
	sp = r.tr.begin("probe.bitvec_rank1", -1, 0)
	b := bitvec.NewBuilder(rg.N)
	for i := 0; i < rg.N; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	vec := b.Build()
	pos := make([]int, 1<<16)
	for i := range pos {
		pos[i] = rng.Intn(rg.N + 1)
	}
	r.rep.addLayer("bitvec.rank1_ns", timePerOp(func() int {
		for _, p := range pos {
			sink += uint64(vec.Rank1(p))
		}
		return len(pos)
	}), "ns")
	r.tr.end(sp)

	// wavelet.rank_ns: Lp.Rank(c, i) at random points of the ring.
	sp = r.tr.begin("probe.wavelet_rank", -1, 0)
	type pt struct {
		c uint32
		i int
	}
	pts := make([]pt, 1<<16)
	for k := range pts {
		pts[k] = pt{uint32(rng.Intn(int(rg.Lp.Sigma()))), rng.Intn(rg.N + 1)}
	}
	r.rep.addLayer("wavelet.rank_ns", timePerOp(func() int {
		for _, p := range pts {
			sink += uint64(rg.Lp.Rank(p.c, p.i))
		}
		return len(pts)
	}), "ns")
	r.tr.end(sp)

	// wavelet.traverse_ns_per_node: TraverseMany over the object range
	// of each constant, visiting every node.
	sp = r.tr.begin("probe.wavelet_traverse", -1, 0)
	if len(consts) == 0 {
		consts = []uint32{0}
	}
	items := make([]wavelet.RangeMask, 1)
	r.rep.addLayer("wavelet.traverse_ns_per_node", timePerOp(func() int {
		nodes := 0
		for _, c := range consts {
			lo, hi := rg.ObjectRange(c)
			items = items[:1]
			items[0] = wavelet.RangeMask{B: lo, E: hi, Mask: 1}
			rg.Lp.TraverseMany(items, func(_ wavelet.NodeID, _ bool, _ uint32, its []wavelet.RangeMask) int {
				nodes++
				return len(its)
			})
		}
		return max(nodes, 1)
	}), "ns")
	r.tr.end(sp)

	// glushkov.compile_us: Build + NewEngineFor + Compile per distinct
	// expression; glushkov.step_ns: StepBack on the compiled steppers.
	sp = r.tr.begin("probe.glushkov_compile", -1, 0)
	distinct := map[string]pathexpr.Node{}
	for _, e := range exprs {
		distinct[pathexpr.String(e)] = e
	}
	var uniq []pathexpr.Node
	for _, e := range distinct {
		uniq = append(uniq, e)
	}
	numCompleted := g.NumCompletedPreds()
	var steppers []glushkov.Stepper
	var widths []int
	compile := func() int {
		steppers, widths = steppers[:0], widths[:0]
		for _, e := range uniq {
			a := glushkov.Build(e, ids)
			eng, err := glushkov.NewEngineFor(a, numCompleted)
			if err != nil {
				continue // wider than one word: not compiled
			}
			steppers = append(steppers, glushkov.Compile(eng, numCompleted))
			widths = append(widths, a.M+1)
		}
		return max(len(uniq), 1)
	}
	r.rep.addLayer("glushkov.compile_us", timePerOp(compile)/1e3, "us")
	r.tr.end(sp)

	sp = r.tr.begin("probe.glushkov_step", -1, 0)
	masks := make([][]uint64, len(steppers))
	for k, w := range widths {
		masks[k] = make([]uint64, 256)
		for j := range masks[k] {
			masks[k][j] = rng.Uint64() & (1<<uint(w) - 1)
		}
	}
	r.rep.addLayer("glushkov.step_ns", timePerOp(func() int {
		n := 0
		for k, st := range steppers {
			for _, x := range masks[k] {
				sink += st.StepBack(x)
			}
			n += len(masks[k])
		}
		return max(n, 1)
	}), "ns")
	r.tr.end(sp)

	if patterns == nil {
		for _, p := range workload.GeneratePatterns(g, workload.PatternConfig{Seed: r.seed + 3, Total: probePatternCount}) {
			patterns = append(patterns, p.Text)
		}
	}
	probePatterns(r, g, rg, patterns)
}

// probePatterns times query.Exec.Plan (first planning of each pattern)
// and Exec.Run (which covers the leapfrog triejoin) per pattern on a
// fresh executor over the workload's ring.
func probePatterns(r *run, g *triples.Graph, rg *ring.Ring, patterns []string) {
	sp := r.tr.begin("probe.query", -1, 0)
	defer r.tr.end(sp)
	x := query.NewExec(g, rg, query.NewSelCache())
	var plan, runT []float64
	for i, src := range patterns {
		q, err := query.Parse(src)
		if err != nil {
			fmt.Printf("pattern %d does not parse: %v\n", i, err)
			continue
		}
		psp := r.tr.begin("query.plan", sp, int64(i+1))
		t0 := time.Now()
		_, err = x.Plan(q)
		plan = append(plan, float64(time.Since(t0))/float64(time.Microsecond))
		r.tr.end(psp)
		if err != nil {
			continue
		}
		rsp := r.tr.begin("query.run", sp, int64(i+1))
		t0 = time.Now()
		_ = x.Run(q, query.Options{Limit: readLimit, Timeout: readTimeout}, func(query.Binding) bool { return true })
		runT = append(runT, ms(time.Since(t0)))
		r.tr.end(rsp)
	}
	r.rep.addLayer("query.plan_us", median(plan), "us")
	r.rep.addLayer("query.run_ms", median(runT), "ms")
}

// timePerOp runs body (which returns the number of operations it did)
// for probeTime per round and returns the median over probeRounds
// rounds of the nanoseconds per operation.
func timePerOp(body func() int) float64 {
	body() // warm caches and lazy state
	var per []float64
	for round := 0; round < probeRounds; round++ {
		ops := 0
		t0 := time.Now()
		for time.Since(t0) < probeTime {
			ops += body()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per)
}
