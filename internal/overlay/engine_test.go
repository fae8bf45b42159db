package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// scenario is one randomly generated static/overlay split with a known
// merged ground truth.
type scenario struct {
	gStatic *triples.Graph // ring built from this
	gMerged *triples.Graph // oracle evaluated over this
	ov      *Overlay
	nv      int // merged node universe (≥ static nodes)
	np      int
}

type baseEdge struct{ s, p, o uint32 }

// buildScenario splits a random edge universe into a static part and a
// sequence of overlay batches (adds of the remainder plus deletions of
// static edges, applied in several rounds with some churn), interning
// identical names in identical order so ids agree across graphs.
func buildScenario(t *testing.T, seed int64, nv, np, ne, extraNodes int, shards int, layout ring.Layout) (*scenario, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	intern := func(b *triples.Builder, n int) {
		for i := 0; i < nv; i++ {
			b.Nodes().Intern(fmt.Sprintf("n%03d", i))
		}
		for i := 0; i < np; i++ {
			b.Preds().Intern(fmt.Sprintf("p%c", 'a'+i))
		}
		for i := nv; i < n; i++ {
			b.Nodes().Intern(fmt.Sprintf("n%03d", i))
		}
	}

	// Edge universe, deduped.
	seen := map[baseEdge]bool{}
	var universe []baseEdge
	for i := 0; i < ne; i++ {
		e := baseEdge{uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv))}
		if !seen[e] {
			seen[e] = true
			universe = append(universe, e)
		}
	}
	// A few edges touching the post-build node ids.
	total := nv + extraNodes
	for i := 0; i < extraNodes; i++ {
		e := baseEdge{uint32(nv + i), uint32(rng.Intn(np)), uint32(rng.Intn(total))}
		if !seen[e] {
			seen[e] = true
			universe = append(universe, e)
		}
	}

	var static, pending []baseEdge
	for _, e := range universe {
		if int(e.s) < nv && int(e.o) < nv && rng.Intn(3) > 0 {
			static = append(static, e)
		} else {
			pending = append(pending, e)
		}
	}

	sb := triples.NewBuilder()
	intern(sb, nv) // static dictionary: original nodes only
	for _, e := range static {
		sb.AddIDs(e.s, e.p, e.o)
	}
	gStatic := sb.Build()
	if gStatic.Len() == 0 {
		t.Skip("empty static graph")
	}
	// Live updates intern new node names post-build, exactly like
	// DB.Apply does.
	for i := nv; i < total; i++ {
		gStatic.Nodes.Intern(fmt.Sprintf("n%03d", i))
	}

	var rings []*ring.Ring
	var static2 core.Evaluator
	ids := func(s pathexpr.Sym) (uint32, bool) { return gStatic.PredID(s.Name, s.Inverse) }
	if shards > 1 {
		set := ring.NewShardSet(gStatic, shards, nil, layout)
		rings = set.Shards
		static2 = core.NewShardedEngine(set, ids)
	} else {
		r := ring.New(gStatic, layout)
		rings = []*ring.Ring{r}
		static2 = core.NewEngine(r, ids)
	}
	inStatic := func(e Edge) bool {
		for _, r := range rings {
			if r.Has(e.S, e.P, e.O) {
				return true
			}
		}
		return false
	}

	npc := uint32(np)
	complete := func(es []baseEdge) []Edge {
		out := make([]Edge, 0, 2*len(es))
		for _, e := range es {
			out = append(out, Edge{S: e.s, P: e.p, O: e.o}, Edge{S: e.o, P: e.p + npc, O: e.s})
		}
		return out
	}

	// Apply the pending edges in batches, deleting some static edges and
	// churning (delete-then-revive) along the way.
	ov := New()
	version := uint64(0)
	alive := map[baseEdge]bool{}
	for _, e := range static {
		alive[e] = true
	}
	for len(pending) > 0 || version == 0 {
		n := 1 + rng.Intn(4)
		if n > len(pending) {
			n = len(pending)
		}
		adds := pending[:n]
		pending = pending[n:]
		var dels []baseEdge
		for _, e := range static {
			if alive[e] && rng.Intn(8) == 0 {
				dels = append(dels, e)
			}
		}
		version++
		ov = ov.Apply(version, complete(adds), complete(dels), inStatic)
		for _, e := range adds {
			alive[e] = true
		}
		for _, e := range dels {
			alive[e] = false
		}
		// Occasionally revive a deleted edge in its own batch.
		if rng.Intn(3) == 0 {
			for _, e := range static {
				if !alive[e] {
					version++
					ov = ov.Apply(version, complete([]baseEdge{e}), nil, inStatic)
					alive[e] = true
					break
				}
			}
		}
	}

	mb := triples.NewBuilder()
	intern(mb, total) // merged dictionary: full universe
	for e, ok := range alive {
		if ok {
			mb.AddIDs(e.s, e.p, e.o)
		}
	}
	gMerged := mb.Build()

	eng := NewEngine(static2, rings, ids, gStatic.NumCompletedPreds())
	eng.SetSnapshot(ov, gStatic.NumNodes())
	return &scenario{gStatic: gStatic, gMerged: gMerged, ov: ov, nv: total, np: np}, eng
}

// runCase compares one evaluation against the oracle.
func runCase(t *testing.T, sc *scenario, eng *Engine, subject int64, expr pathexpr.Node, object int64) {
	t.Helper()
	want := enginetest.SortPairs(enginetest.Oracle(sc.gMerged, subject, expr, object))
	// The hotness default and both stepping tiers (compiled stepper,
	// interpreter) must match the oracle.
	for _, opts := range []core.Options{{}, {CompileEager: true}, {DisableCompiled: true}} {
		var got []enginetest.Pair
		_, err := eng.Eval(context.Background(), core.Query{Subject: subject, Expr: expr, Object: object}, opts, func(s, o uint32) bool {
			got = append(got, enginetest.Pair{S: s, O: o})
			return true
		})
		if err != nil {
			t.Fatalf("Eval(%v, %s, %v): %v", subject, pathexpr.String(expr), object, err)
		}
		got = enginetest.SortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("Eval(%v, %s, %v) %+v: %d pairs, oracle %d\n got=%v\nwant=%v",
				subject, pathexpr.String(expr), object, opts, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Eval(%v, %s, %v) %+v: pair %d = %v, oracle %v",
					subject, pathexpr.String(expr), object, opts, i, got[i], want[i])
			}
		}
	}
}

func testDifferential(t *testing.T, shards int) {
	for seed := int64(0); seed < 8; seed++ {
		sc, eng := buildScenario(t, 100+seed, 14, 4, 40, 2, shards, ring.WaveletMatrix)
		rng := rand.New(rand.NewSource(999 + seed))
		for q := 0; q < 30; q++ {
			expr := enginetest.RandomExpr(rng, sc.np, 1+rng.Intn(3))
			var subject, object int64 = core.Variable, core.Variable
			switch rng.Intn(4) {
			case 0:
				object = int64(rng.Intn(sc.nv))
			case 1:
				subject = int64(rng.Intn(sc.nv))
			case 2:
				subject = int64(rng.Intn(sc.nv))
				object = int64(rng.Intn(sc.nv))
			}
			runCase(t, sc, eng, subject, expr, object)
		}
	}
}

func TestUnionEngineDifferential(t *testing.T)        { testDifferential(t, 1) }
func TestUnionEngineDifferentialSharded(t *testing.T) { testDifferential(t, 3) }

// TestUnionEngineWide drives the >64-state fallback: an expression with
// 72 Glushkov positions over a small updated graph.
func TestUnionEngineWide(t *testing.T) {
	sc, eng := buildScenario(t, 7, 10, 4, 25, 1, 1, ring.WaveletMatrix)
	alt := pathexpr.Node(pathexpr.Sym{Name: "pa"})
	for _, n := range []string{"pb", "pc", "pd"} {
		alt = pathexpr.Alt{L: alt, R: pathexpr.Sym{Name: n}}
	}
	wide := pathexpr.Node(pathexpr.Opt{X: alt}) // 4 positions
	for i := 0; i < 17; i++ {                   // 72 positions total
		wide = pathexpr.Concat{L: wide, R: pathexpr.Opt{X: alt}}
	}
	runCase(t, sc, eng, core.Variable, wide, core.Variable)
	runCase(t, sc, eng, 3, wide, core.Variable)
	runCase(t, sc, eng, core.Variable, wide, 5)
	runCase(t, sc, eng, 2, wide, 9)
}

// countingEval wraps an evaluator and counts delegated calls.
type countingEval struct {
	inner core.Evaluator
	calls int
}

func (c *countingEval) Eval(ctx context.Context, q core.Query, opts core.Options, emit core.EmitFunc) (core.Stats, error) {
	c.calls++
	return c.inner.Eval(ctx, q, opts, emit)
}

// TestUnionEngineDelegates checks whole-query delegation: queries over
// predicates the overlay never touches go to the static engine;
// queries over touched predicates do not.
func TestUnionEngineDelegates(t *testing.T) {
	b := triples.NewBuilder()
	b.Add("a", "pa", "b")
	b.Add("b", "pa", "c")
	b.Add("a", "pb", "c")
	g := b.Build()
	r := ring.New(g, ring.WaveletMatrix)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	counted := &countingEval{inner: core.NewEngine(r, ids)}

	// Overlay touches only pb.
	pb, _ := g.PredID("pb", false)
	ov := New().Apply(1, []Edge{{S: 1, P: pb, O: 0}, {S: 0, P: pb + g.NumPreds, O: 1}}, nil,
		func(e Edge) bool { return r.Has(e.S, e.P, e.O) })
	eng := NewEngine(counted, []*ring.Ring{r}, ids, g.NumCompletedPreds())
	eng.SetSnapshot(ov, g.NumNodes())

	drop := func(uint32, uint32) bool { return true }
	if _, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pa+"), Object: core.Variable}, core.Options{}, drop); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 1 {
		t.Fatalf("query over untouched pa should delegate (calls=%d)", counted.calls)
	}
	if _, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pb/pa?"), Object: core.Variable}, core.Options{}, drop); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 1 {
		t.Fatalf("query over touched pb must not delegate (calls=%d)", counted.calls)
	}
	// Nullable expressions delegate too while no new nodes exist.
	if _, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pa*"), Object: core.Variable}, core.Options{}, drop); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 2 {
		t.Fatalf("nullable query over untouched pa should delegate without new nodes (calls=%d)", counted.calls)
	}
}

// TestUnionEngineLimitTimeout checks option handling parity.
func TestUnionEngineLimitTimeout(t *testing.T) {
	sc, eng := buildScenario(t, 11, 14, 4, 50, 1, 1, ring.WaveletMatrix)
	expr := pathexpr.Star{X: pathexpr.Sym{Name: "pa"}}
	n := 0
	_, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable},
		core.Options{Limit: 5}, func(s, o uint32) bool { n++; return true })
	if err != nil || n != 5 {
		t.Fatalf("limit run: n=%d err=%v, want 5 results", n, err)
	}
	_ = sc
}

// A 1ns deadline on a dense overlaid graph must interrupt the union
// traversal inside its per-edge/per-leaf loops — ring descents and
// overlay merges alike — in every stepping tier.
func TestUnionEngineTimeoutProbedInInnerLoops(t *testing.T) {
	_, eng := buildScenario(t, 21, 150, 2, 1800, 100, 1, ring.WaveletMatrix)
	expr := pathexpr.MustParse("(pa|pb)+")
	q := core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable}
	for _, opts := range []core.Options{
		{Timeout: time.Nanosecond},
		{Timeout: time.Nanosecond, CompileEager: true},
		{Timeout: time.Nanosecond, DisableCompiled: true},
	} {
		start := time.Now()
		_, err := eng.Eval(context.Background(), q, opts, func(s, o uint32) bool { return true })
		elapsed := time.Since(start)
		if err != core.ErrTimeout {
			t.Fatalf("opts=%+v: err=%v, want ErrTimeout", opts, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("opts=%+v: 1ns deadline took %v", opts, elapsed)
		}
	}
}

// cutoffCase builds a union engine over a static graph of the given
// edges, with the overlay tombstoning del (a static in-edge of the
// query's start object) and adding add, plus the merged oracle graph.
// Node ids follow the order of nodes.
func cutoffCase(t *testing.T, nodes []string, static [][3]string, del, add [3]string) (*Engine, *triples.Graph) {
	t.Helper()
	build := func(edges [][3]string) *triples.Graph {
		b := triples.NewBuilder()
		for _, n := range nodes {
			b.Nodes().Intern(n)
		}
		b.Preds().Intern("pa")
		b.Preds().Intern("pb")
		for _, e := range edges {
			b.Add(e[0], e[1], e[2])
		}
		return b.Build()
	}
	g := build(static)
	var merged [][3]string
	for _, e := range static {
		if e != del {
			merged = append(merged, e)
		}
	}
	r := ring.New(g, ring.WaveletMatrix)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	complete := func(e [3]string) []Edge {
		s, _ := g.Nodes.Lookup(e[0])
		o, _ := g.Nodes.Lookup(e[2])
		p, _ := g.PredID(e[1], false)
		return []Edge{{S: s, P: p, O: o}, {S: o, P: p + g.NumPreds, O: s}}
	}
	ov := New().Apply(1, complete(add), complete(del), func(e Edge) bool { return r.Has(e.S, e.P, e.O) })
	if ov.DelCount() != 2 || ov.AddCount() != 2 {
		t.Fatalf("overlay has %d tombstones and %d adds, want 2 and 2", ov.DelCount(), ov.AddCount())
	}
	eng := NewEngine(core.NewEngine(r, ids), []*ring.Ring{r}, ids, g.NumCompletedPreds())
	eng.SetSnapshot(ov, g.NumNodes())
	return eng, build(append(merged, add))
}

// Both sides of the batch cutoff must match the oracle through the
// union engine, with a tombstoned in-edge on the start object (dropped
// by the positional LeafMask hook on either side): a chain, whose
// levels are all single nodes (the per-item descent), and a fan whose
// first level has 15 nodes with interleaved, never-coalescing object
// ranges (the batched descent).
func TestUnionEngineCutoffSidesMatchOracle(t *testing.T) {
	preds := [2]string{"pa", "pb"}
	var chainNodes []string
	var chain [][3]string
	for i := 0; i <= 11; i++ {
		chainNodes = append(chainNodes, fmt.Sprintf("v%02d", i))
	}
	chainNodes = append(chainNodes, "x", "y")
	for i := 0; i < 11; i++ {
		chain = append(chain, [3]string{chainNodes[i], preds[i%2], chainNodes[i+1]})
	}
	chain = append(chain, [3]string{"x", "pa", "v11"})
	fanNodes := []string{"hub"}
	var fan [][3]string
	for i := 0; i < 16; i++ {
		a, b := fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i)
		fanNodes = append(fanNodes, a, b)
		fan = append(fan, [3]string{a, preds[i%2], "hub"}, [3]string{b, preds[i%2], a})
	}
	fanNodes = append(fanNodes, "y")
	for _, tc := range []struct {
		name     string
		nodes    []string
		static   [][3]string
		del, add [3]string
		start    string
		batched  bool
	}{
		{"chain", chainNodes, chain, [3]string{"x", "pa", "v11"}, [3]string{"y", "pb", "v05"}, "v11", false},
		{"fan", fanNodes, fan, [3]string{"a00", "pa", "hub"}, [3]string{"y", "pb", "a03"}, "hub", true},
	} {
		eng, merged := cutoffCase(t, tc.nodes, tc.static, tc.del, tc.add)
		o, _ := merged.Nodes.Lookup(tc.start)
		expr := pathexpr.MustParse("(pa|pb)+")
		want := enginetest.SortPairs(enginetest.Oracle(merged, core.Variable, expr, int64(o)))
		for _, opts := range []core.Options{{}, {CompileEager: true}} {
			tr := obs.New()
			opts.Trace = tr
			var got []enginetest.Pair
			_, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: expr, Object: int64(o)}, opts,
				func(s, o uint32) bool { got = append(got, enginetest.Pair{S: s, O: o}); return true })
			if err != nil {
				t.Fatal(err)
			}
			if got = enginetest.SortPairs(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %v, oracle %v", tc.name, got, want)
			}
			maxFrontier := int64(0)
			for _, sp := range tr.Spans() {
				if sp.Kind == obs.SpanLevel {
					maxFrontier = max(maxFrontier, sp.Vals[0])
				}
			}
			if (maxFrontier >= 4) != tc.batched {
				t.Fatalf("%s: widest level %d nodes, want batched=%v", tc.name, maxFrontier, tc.batched)
			}
		}
	}
}

// A v→v query's per-candidate traversals start at its selective end
// through the union engine too, counting overlay adds and tombstones:
// pa/pb* and pb*/pa over a 200-node pb chain fed by three pa edges, one
// of them tombstoned and one pa edge added, stay within two product
// nodes per result.
func TestUnionEngineVarVarStartsAtSelectiveEnd(t *testing.T) {
	static := enginetest.RareIntoChain(200)
	add := [3]string{"x2", "pa", "c000"}
	var nodes []string
	seen := map[string]bool{}
	for _, e := range append(static, add) {
		for _, n := range []string{e[0], e[2]} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	eng, merged := cutoffCase(t, nodes, static, [3]string{"x1", "pa", "c000"}, add)
	for _, src := range []string{"pa/pb*", "pb*/pa"} {
		expr := pathexpr.MustParse(src)
		want := enginetest.SortPairs(enginetest.Oracle(merged, core.Variable, expr, core.Variable))
		var got []enginetest.Pair
		st, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable}, core.Options{},
			func(s, o uint32) bool { got = append(got, enginetest.Pair{S: s, O: o}); return true })
		if err != nil {
			t.Fatal(err)
		}
		if got = enginetest.SortPairs(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %d pairs, oracle %d", src, len(got), len(want))
		}
		if st.ProductNodes > 2*st.Results+2 {
			t.Errorf("%s activated %d product nodes for %d results, want at most %d",
				src, st.ProductNodes, st.Results, 2*st.Results+2)
		}
	}
}
