package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// The level-synchronous traversal — the per-item descent below the
// batch cutoff, frontier batching from there on — must produce exactly
// the oracle's result set on random graphs and expressions, for every
// endpoint shape, on both wavelet layouts.
func TestBatchingMatchesOracle(t *testing.T) {
	for seed := int64(100); seed < 116; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(24)
		np := 1 + rng.Intn(5)
		ne := 1 + rng.Intn(80)
		g := enginetest.RandomGraph(seed, nv, np, ne)
		for _, layout := range []ring.Layout{ring.WaveletMatrix, ring.WaveletTree} {
			e := newEngine(g, layout)
			for trial := 0; trial < 5; trial++ {
				expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
				for _, q := range queriesFor(rng, g, expr) {
					want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
					diffPairs(t, "batched vs oracle", evalPairs(t, e, q, Options{DisableFastPaths: true}), want, q)
				}
			}
		}
	}
}

// Negated property sets drive the per-node symbol-range filters of the
// part-1 descent, per item and batched; they must agree with the oracle.
func TestBatchingNegSets(t *testing.T) {
	g := enginetest.RandomGraph(7, 14, 4, 70)
	e := newEngine(g, ring.WaveletMatrix)
	rng := rand.New(rand.NewSource(7))
	for _, src := range []string{
		"!pa", "!(pa|pb)", "!^pc", "(!pa)+", "!(pa|^pb)*", "pa/!pb", "!pa|!pb",
	} {
		expr := pathexpr.MustParse(src)
		for _, q := range queriesFor(rng, g, expr) {
			want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
			diffPairs(t, "negset-batched", evalPairs(t, e, q, Options{}), want, q)
		}
	}
}

// Batched traversal composes with the other ablation switches.
func TestBatchingWithNodeMarksDisabled(t *testing.T) {
	g := enginetest.RandomGraph(8, 16, 3, 70)
	e := newEngine(g, ring.WaveletMatrix)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		expr := enginetest.RandomExpr(rng, 3, 2)
		for _, q := range queriesFor(rng, g, expr) {
			want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
			got := evalPairs(t, e, q, Options{DisableFastPaths: true, DisableNodeMarks: true})
			diffPairs(t, "batched-nomarks", got, want, q)
		}
	}
}

// Limits must truncate the level-synchronous traversal exactly (which
// pairs make the prefix depends on traversal order, its size does not).
func TestBatchingLimit(t *testing.T) {
	g := enginetest.RandomGraph(11, 20, 3, 120)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: Variable}
	full := evalPairs(t, e, q, Options{DisableFastPaths: true})
	if len(full) < 5 {
		t.Skipf("graph too sparse (%d results)", len(full))
	}
	n := 0
	st, err := e.Eval(context.Background(), q, Options{DisableFastPaths: true, Limit: 4}, func(s, o uint32) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatalf("limited eval: %v", err)
	}
	if n != 4 || st.Results != 4 {
		t.Fatalf("limit 4 delivered %d results (stats %d)", n, st.Results)
	}
}

// The Theorem 4.1 work bound: every product edge pays at most one
// part-1 descent of L_p and every product node at most one part-2
// descent of L_s, each a root-to-leaf path plus the pruned siblings
// along it, so the wavelet-node visits stay within 2(h+1) per product
// edge and node, h being the taller tree's height. It must hold
// whatever mix of per-item and batched levels a query takes (the
// multiword fallback has no B[v]/D[v] pruning and makes no such
// promise).
func TestWaveletVisitsWithinTheoremBound(t *testing.T) {
	g := enginetest.RandomGraph(21, 400, 4, 3000)
	e := newEngine(g, ring.WaveletMatrix)
	h := max(bits.Len32(e.r.NumPreds-1), bits.Len(uint(e.r.NumNodes-1)))
	for _, src := range []string{"(pa|pb)+", "pa*", "(pa/pb)+", "(pa|^pc)+/pd"} {
		for _, ends := range [][2]int64{{Variable, Variable}, {3, Variable}, {Variable, 5}} {
			for _, opts := range []Options{
				{DisableFastPaths: true},
				{DisableFastPaths: true, DisableNodeMarks: true},
			} {
				q := Query{Subject: ends[0], Expr: pathexpr.MustParse(src), Object: ends[1]}
				st, err := e.Eval(context.Background(), q, opts, func(s, o uint32) bool { return true })
				if err != nil {
					t.Fatal(err)
				}
				if bound := 2 * (h + 1) * (st.ProductEdges + st.ProductNodes + 1); st.WaveletVisits > bound {
					t.Fatalf("(%d, %s, %d) %+v: WaveletVisits=%d exceeds 2(h+1)(edges+nodes+1)=%d (h=%d, %+v)",
						q.Subject, src, q.Object, opts, st.WaveletVisits, bound, h, st)
				}
			}
		}
	}
}

// pairSet must behave as a set within one epoch and forget everything
// across resets, including after enough resets to recycle pages.
func TestPairSetReuse(t *testing.T) {
	var ps pairSet
	for epoch := 0; epoch < 300; epoch++ {
		if !ps.add(1, 2) {
			t.Fatalf("epoch %d: first add(1,2) reported duplicate", epoch)
		}
		if ps.add(1, 2) {
			t.Fatalf("epoch %d: second add(1,2) reported new", epoch)
		}
		// Pairs far apart land on distinct pages; page-cache churn must
		// not lose membership.
		for i := uint32(0); i < 50; i++ {
			s, o := i*7919, i*104729
			if !ps.add(s, o) {
				t.Fatalf("epoch %d: add(%d,%d) reported duplicate", epoch, s, o)
			}
			if ps.add(s, o) {
				t.Fatalf("epoch %d: re-add(%d,%d) reported new", epoch, s, o)
			}
		}
		ps.reset()
	}
}

func TestPairSetAdjacentBits(t *testing.T) {
	var ps pairSet
	// Exhaust one page's bit positions: all distinct, all remembered.
	for o := uint32(0); o < 1<<pairPageBits; o++ {
		if !ps.add(9, o) {
			t.Fatalf("add(9,%d) reported duplicate", o)
		}
	}
	for o := uint32(0); o < 1<<pairPageBits; o++ {
		if ps.add(9, o) {
			t.Fatalf("re-add(9,%d) reported new", o)
		}
	}
}

// BenchmarkBatchedBFS times the level-synchronous traversal on closure
// queries over a Wikidata-shaped graph (the skewed-degree workload the
// batching targets; uniform-random graphs produce scattered frontiers
// that mostly take the per-item descent). `make ci` runs it in short
// mode as a smoke test.
func BenchmarkBatchedBFS(b *testing.B) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 6000, Edges: 30000, Preds: 40})
	e := newEngine(g, ring.WaveletMatrix)
	queries := []Query{
		{Subject: Variable, Expr: pathexpr.MustParse("P1*"), Object: 7},
		{Subject: Variable, Expr: pathexpr.MustParse("(P2|P5)+"), Object: 11},
		{Subject: 3, Expr: pathexpr.MustParse("P1/P2*"), Object: Variable},
	}
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			e.Eval(context.Background(), q, Options{DisableFastPaths: true}, func(s, o uint32) bool { return true })
		}
	}
}

// The stepper table generator must be allocation-free in steady state:
// once an expression is hot, the Glushkov automaton, the specialized
// stepper, and the per-(expr, ring) B[v] array are all memoised on the
// engine, and the memo lookup itself renders the canonical key into a
// reused buffer. allocs/op must be exactly zero — a regression here
// means every evaluation of a hot expression pays generator costs
// again. `make ci` asserts this via -benchtime with ReportAllocs.
func BenchmarkCompiledStepperSteadyState(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g, ring.WaveletMatrix)
	exprs := []pathexpr.Node{
		pathexpr.MustParse("(pa|pb)+"),
		pathexpr.MustParse("pa/pb*"),
		pathexpr.MustParse("pa|pb|pc"),
	}
	for _, x := range exprs { // cold builds outside the timed loop
		if ca := e.memo.Get(x, true, false); ca.St == nil || ca.BArrs[0] == nil {
			b.Fatal("warm-up did not compile a stepper")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := e.memo.Get(exprs[i%len(exprs)], true, false)
		if ca.St == nil || ca.BArrs[0] == nil {
			b.Fatal("memo lost the compiled stepper")
		}
	}
}

// cutoffGraphs builds the two shapes that pin which descent a level
// takes, over predicates pa and pb alternating along every path (so a
// sharded layout needs the cooperative traversal). In chain every level
// is one node, always below batchCutoff: the per-item descent. In fan,
// 16 sources a_i enter the hub and each a_i has its own source b_i; ids
// interleave a_i and b_i, and completion gives every b_i an in-edge, so
// no two level-1 object ranges are adjacent and the level stays at 16
// items (8 per predicate's shard): the batched descent.
func cutoffGraphs() (chain, fan *triples.Graph) {
	b := triples.NewBuilder()
	for i := 0; i <= 10; i++ {
		b.Add(fmt.Sprintf("v%02d", i), []string{"pa", "pb"}[i%2], fmt.Sprintf("v%02d", i+1))
	}
	chain = b.Build()
	b = triples.NewBuilder()
	b.Nodes().Intern("hub")
	for i := 0; i < 16; i++ {
		b.Nodes().Intern(fmt.Sprintf("a%02d", i))
		b.Nodes().Intern(fmt.Sprintf("b%02d", i))
	}
	for i := 0; i < 16; i++ {
		p := []string{"pa", "pb"}[i%2]
		b.Add(fmt.Sprintf("a%02d", i), p, "hub")
		b.Add(fmt.Sprintf("b%02d", i), p, fmt.Sprintf("a%02d", i))
	}
	return chain, b.Build()
}

// levelFrontiers lists the frontier attribute of every level span.
func levelFrontiers(tr *obs.Trace) []int64 {
	var out []int64
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.SpanLevel {
			out = append(out, sp.Vals[0])
		}
	}
	return out
}

// Both descents must match the oracle on the single-ring and the
// sharded (K=3) engine: the chain's levels all stay below batchCutoff,
// the fan's first level exceeds it.
func TestCutoffSidesMatchOracle(t *testing.T) {
	chain, fan := cutoffGraphs()
	expr := pathexpr.MustParse("(pa|pb)+")
	for _, tc := range []struct {
		name    string
		g       *triples.Graph
		object  string
		batched bool
	}{
		{"chain", chain, "v11", false},
		{"fan", fan, "hub", true},
	} {
		o := int64(mustID(t, tc.g, tc.object))
		q := Query{Subject: Variable, Expr: expr, Object: o}
		want := enginetest.SortPairs(enginetest.Oracle(tc.g, q.Subject, q.Expr, q.Object))
		set := ring.NewShardSet(tc.g, 3, modPartitioner{}, ring.WaveletMatrix)
		for _, ev := range []struct {
			name string
			e    Evaluator
		}{
			{"engine", newEngine(tc.g, ring.WaveletMatrix)},
			{"sharded", NewShardedEngine(set, idsOf(tc.g))},
		} {
			tr := obs.New()
			diffPairs(t, tc.name+"/"+ev.name, evalPairs(t, ev.e, q, Options{Trace: tr}), want, q)
			fs := levelFrontiers(tr)
			if len(fs) == 0 || slices.Max(fs) >= batchCutoff != tc.batched {
				t.Fatalf("%s/%s: level frontiers %v, want a level of ≥%d items: %v",
					tc.name, ev.name, fs, batchCutoff, tc.batched)
			}
		}
	}
}
