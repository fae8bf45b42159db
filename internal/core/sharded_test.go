package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

func idsOf(g *triples.Graph) glushkov.SymbolIDs {
	return func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
}

func evalPairs(t *testing.T, ev Evaluator, q Query, opts Options) []enginetest.Pair {
	t.Helper()
	var out []enginetest.Pair
	_, err := ev.Eval(context.Background(), q, opts, func(s, o uint32) bool {
		out = append(out, enginetest.Pair{S: s, O: o})
		return true
	})
	if err != nil {
		t.Fatalf("Eval(%s): %v", pathexpr.String(q.Expr), err)
	}
	return enginetest.SortPairs(out)
}

func bfsPairs(t *testing.T, ix *bfs.Index, q Query) []enginetest.Pair {
	t.Helper()
	var out []enginetest.Pair
	err := ix.Eval(q.Subject, q.Expr, q.Object, bfs.Options{}, func(s, o uint32) bool {
		out = append(out, enginetest.Pair{S: s, O: o})
		return true
	})
	if err != nil {
		t.Fatalf("bfs.Eval(%s): %v", pathexpr.String(q.Expr), err)
	}
	return enginetest.SortPairs(out)
}

func diffPairs(t *testing.T, label string, got, want []enginetest.Pair, q Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: query (%d, %s, %d): %d pairs, want %d\n got: %v\nwant: %v",
			label, q.Subject, pathexpr.String(q.Expr), q.Object, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: query (%d, %s, %d): pair %d is %v, want %v",
				label, q.Subject, pathexpr.String(q.Expr), q.Object, i, got[i], want[i])
		}
	}
}

// checkVariants checks q on ev against want the three ways every
// differential case runs: the hotness default; the compiled stepper,
// repeating the evaluation until the expression's use count passes
// compileThreshold; and the widened expression (enginetest.Widen),
// which takes the multiword fallback.
func checkVariants(t *testing.T, label string, ev Evaluator, q Query, want []enginetest.Pair) {
	t.Helper()
	diffPairs(t, label, evalPairs(t, ev, q, Options{}), want, q)
	for i := 0; i < compileThreshold; i++ {
		diffPairs(t, label+" (compiled)", evalPairs(t, ev, q, Options{}), want, q)
	}
	wide := q
	wide.Expr = enginetest.Widen(q.Expr)
	diffPairs(t, label+" (widened)", evalPairs(t, ev, wide, Options{}), want, q)
}

// queriesFor derives the four endpoint shapes (v→v, c→v, v→c, c→c) for
// one expression, with constants drawn from the oracle's result pairs
// when possible (so constant queries are not vacuously empty) plus a
// random — possibly miss-everything — constant.
func queriesFor(rng *rand.Rand, g *triples.Graph, expr pathexpr.Node) []Query {
	nv := int64(g.NumNodes())
	s := rng.Int63n(nv)
	o := rng.Int63n(nv)
	return []Query{
		{Subject: Variable, Expr: expr, Object: Variable},
		{Subject: s, Expr: expr, Object: Variable},
		{Subject: Variable, Expr: expr, Object: o},
		{Subject: s, Expr: expr, Object: o},
	}
}

// TestShardedDifferentialRandom is the property-based differential
// test: on random graphs and random path expressions (predicates,
// inverses, /, |, *, +, ?), the sharded engine (several shard counts),
// the unsharded engine and the BFS baseline must produce identical
// solution sets — and match the relational oracle. Run it under -race
// to exercise the cooperative per-level shard fan-out.
func TestShardedDifferentialRandom(t *testing.T) {
	shardCounts := []int{2, 3, 7}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(24)
		np := 1 + rng.Intn(6)
		ne := 1 + rng.Intn(70)
		g := enginetest.RandomGraph(seed, nv, np, ne)
		r := ring.New(g, ring.WaveletMatrix)
		eng := NewEngine(r, idsOf(g))
		ix := bfs.New(g)
		k := shardCounts[int(seed)%len(shardCounts)]
		set := ring.NewShardSet(g, k, nil, ring.WaveletMatrix)
		sharded := NewShardedEngine(set, idsOf(g))

		for qi := 0; qi < 6; qi++ {
			expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
			for _, q := range queriesFor(rng, g, expr) {
				want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
				checkVariants(t, "engine vs oracle", eng, q, want)
				diffPairs(t, "bfs vs oracle", bfsPairs(t, ix, q), want, q)
				checkVariants(t, fmt.Sprintf("sharded(k=%d) vs oracle", k), sharded, q, want)
			}
		}
	}
}

// singleShardPartitioner sends every predicate to shard 0, leaving the
// remaining K−1 shards empty.
type singleShardPartitioner struct{}

func (singleShardPartitioner) Shard(uint32, int) int { return 0 }
func (singleShardPartitioner) Name() string          { return "test-single" }

// modPartitioner spreads predicates round-robin, guaranteeing that
// consecutive predicate ids land in different shards.
type modPartitioner struct{}

func (modPartitioner) Shard(p uint32, k int) int { return int(p) % k }
func (modPartitioner) Name() string              { return "test-mod" }

// TestShardedEdgeCases pins the merge behaviour on degenerate
// partitions: all triples in one shard (empty co-shards), more shards
// than predicates, and constant endpoints that miss every shard.
func TestShardedEdgeCases(t *testing.T) {
	g := enginetest.RandomGraph(42, 12, 2, 40) // 2 base predicates
	r := ring.New(g, ring.WaveletMatrix)
	eng := NewEngine(r, idsOf(g))
	rng := rand.New(rand.NewSource(7))

	sets := map[string]*ring.ShardSet{
		"all-in-one-of-5": ring.NewShardSet(g, 5, singleShardPartitioner{}, ring.WaveletMatrix),
		"k-exceeds-preds": ring.NewShardSet(g, 9, modPartitioner{}, ring.WaveletMatrix),
		"k-1":             ring.NewShardSet(g, 1, nil, ring.WaveletMatrix),
		"hash-4":          ring.NewShardSet(g, 4, nil, ring.WaveletMatrix),
	}
	exprs := []string{
		"pa", "^pb", "pa/pb", "pa|pb", "(pa|^pb)*", "pa+/pb?", "(pa/pb)+|^pa",
	}
	for name, set := range sets {
		empty := 0
		for _, shard := range set.Shards {
			if shard.N == 0 {
				empty++
			}
		}
		if name == "all-in-one-of-5" && empty != 4 {
			t.Fatalf("%s: %d empty shards, want 4", name, empty)
		}
		sharded := NewShardedEngine(set, idsOf(g))
		for _, src := range exprs {
			expr := pathexpr.MustParse(src)
			for _, q := range queriesFor(rng, g, expr) {
				want := evalPairs(t, eng, q, Options{})
				diffPairs(t, name, evalPairs(t, sharded, q, Options{}), want, q)
			}
		}
		// Constant endpoints outside the node space miss every shard.
		for _, q := range []Query{
			{Subject: int64(g.NumNodes()) + 5, Expr: pathexpr.MustParse("pa*"), Object: Variable},
			{Subject: Variable, Expr: pathexpr.MustParse("pa/pb"), Object: int64(g.NumNodes()) + 9},
			{Subject: int64(g.NumNodes()) + 5, Expr: pathexpr.MustParse("pa|pb"), Object: 0},
		} {
			if got := evalPairs(t, NewShardedEngine(set, idsOf(g)), q, Options{}); len(got) != 0 {
				t.Fatalf("%s: out-of-range endpoint returned %v", name, got)
			}
		}
	}
}

// TestShardedUnknownPredicates checks expressions whose predicates are
// partly or wholly absent from the graph: absent symbols match nothing
// and must not disturb routing or the cooperative traversal.
func TestShardedUnknownPredicates(t *testing.T) {
	g := enginetest.RandomGraph(3, 10, 3, 30)
	r := ring.New(g, ring.WaveletMatrix)
	eng := NewEngine(r, idsOf(g))
	set := ring.NewShardSet(g, 3, modPartitioner{}, ring.WaveletMatrix)
	sharded := NewShardedEngine(set, idsOf(g))
	rng := rand.New(rand.NewSource(11))
	for _, src := range []string{
		"nosuch", "nosuch*", "pa/nosuch", "pa|nosuch", "(nosuch|pb)+", "nosuch?",
	} {
		expr := pathexpr.MustParse(src)
		for _, q := range queriesFor(rng, g, expr) {
			want := evalPairs(t, eng, q, Options{})
			diffPairs(t, "unknown-preds", evalPairs(t, sharded, q, Options{}), want, q)
		}
	}
}

// TestShardedNegSets covers negated property sets, which always take
// the cooperative path (their language spans arbitrary predicates).
func TestShardedNegSets(t *testing.T) {
	g := enginetest.RandomGraph(5, 10, 4, 50)
	r := ring.New(g, ring.WaveletMatrix)
	eng := NewEngine(r, idsOf(g))
	set := ring.NewShardSet(g, 3, nil, ring.WaveletMatrix)
	sharded := NewShardedEngine(set, idsOf(g))
	rng := rand.New(rand.NewSource(13))
	for _, src := range []string{
		"!pa", "!(pa|pb)", "!^pa", "!(pa|^pb)*", "pa/!pb",
	} {
		expr := pathexpr.MustParse(src)
		for _, q := range queriesFor(rng, g, expr) {
			want := evalPairs(t, eng, q, Options{})
			diffPairs(t, "negsets", evalPairs(t, sharded, q, Options{}), want, q)
		}
	}
}

// TestShardedWideExpressions drives the multiword fallback: an
// expression with more than 63 positions spanning several shards.
func TestShardedWideExpressions(t *testing.T) {
	g := enginetest.RandomGraph(17, 8, 4, 60)
	r := ring.New(g, ring.WaveletMatrix)
	eng := NewEngine(r, idsOf(g))
	set := ring.NewShardSet(g, 3, modPartitioner{}, ring.WaveletMatrix)
	sharded := NewShardedEngine(set, idsOf(g))

	// (pa|pb|pc|pd)? repeated: 68 positions, well past the 64-state
	// bit-parallel engine.
	alt := pathexpr.MustParse("(pa|pb|pc|pd)?")
	var expr pathexpr.Node = alt
	for i := 0; i < 16; i++ {
		expr = pathexpr.Concat{L: expr, R: alt}
	}
	if m := pathexpr.CountSyms(expr); m <= 63 {
		t.Fatalf("expression has %d positions, want > 63", m)
	}
	rng := rand.New(rand.NewSource(19))
	for _, q := range queriesFor(rng, g, expr) {
		want := evalPairs(t, eng, q, Options{})
		diffPairs(t, "wide", evalPairs(t, sharded, q, Options{}), want, q)
	}
}

// TestShardedLimitAndTimeout checks option plumbing on the cooperative
// path: limits truncate (with a nil error) and expired deadlines
// surface ErrTimeout.
func TestShardedLimitAndTimeout(t *testing.T) {
	g := enginetest.RandomGraph(23, 20, 4, 120)
	set := ring.NewShardSet(g, 4, modPartitioner{}, ring.WaveletMatrix)
	sharded := NewShardedEngine(set, idsOf(g))
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb|pc)+"), Object: Variable}

	full, err := sharded.Eval(context.Background(), q, Options{}, func(s, o uint32) bool { return true })
	if err != nil {
		t.Fatalf("full eval: %v", err)
	}
	if full.Results < 4 {
		t.Skipf("graph too sparse for a limit test (%d results)", full.Results)
	}
	n := 0
	st, err := sharded.Eval(context.Background(), q, Options{Limit: 3}, func(s, o uint32) bool { n++; return true })
	if err != nil {
		t.Fatalf("limited eval: %v", err)
	}
	if n != 3 || st.Results != 3 {
		t.Fatalf("limit 3 delivered %d results (stats %d)", n, st.Results)
	}

	_, err = sharded.Eval(context.Background(), q, Options{Timeout: -time.Nanosecond}, func(s, o uint32) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	// A negative timeout means the deadline is already past; the
	// traversal must stop early with ErrTimeout rather than run to
	// completion (checked only when the traversal is long enough for a
	// deadline probe, which the 64-step cadence makes likely here).
	if err != nil && err != ErrTimeout {
		t.Fatalf("timeout eval: unexpected error %v", err)
	}
}

// TestShardSetInvariants checks the data-level guarantees the sharded
// engine relies on.
func TestShardSetInvariants(t *testing.T) {
	g := enginetest.RandomGraph(37, 20, 5, 90)
	set := ring.NewShardSet(g, 4, nil, ring.WaveletMatrix)
	total := 0
	for i, shard := range set.Shards {
		if shard.NumNodes != g.NumNodes() || shard.NumPreds != g.NumCompletedPreds() {
			t.Fatalf("shard %d id spaces (%d, %d) differ from global (%d, %d)",
				i, shard.NumNodes, shard.NumPreds, g.NumNodes(), g.NumCompletedPreds())
		}
		total += shard.N
		for p := uint32(0); p < set.NumPreds; p++ {
			if n := shard.Cp[p+1] - shard.Cp[p]; n > 0 && set.ShardFor(p) != i {
				t.Fatalf("predicate %d stored in shard %d, assigned to %d", p, i, set.ShardFor(p))
			}
		}
	}
	if total != g.Len() {
		t.Fatalf("shard triple counts sum to %d, want %d", total, g.Len())
	}
	// A predicate and its inverse must share a shard.
	half := set.NumPreds / 2
	for p := uint32(0); p < half; p++ {
		if set.ShardFor(p) != set.ShardFor(p+half) {
			t.Fatalf("predicate %d and its inverse map to shards %d and %d",
				p, set.ShardFor(p), set.ShardFor(p+half))
		}
	}
}
