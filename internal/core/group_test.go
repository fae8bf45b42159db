package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// TestGroupedMatchesSolo is the shared-traversal differential test:
// random mixed-shape query batches evaluated through EvalGroup must
// produce, member by member, exactly the solo Eval result sets — which
// checkAgainstOracle already ties to the relational oracle. Shapes the
// group cannot share (both-variable, both-const) ride along to cover
// the solo fallback inside EvalGroup.
func TestGroupedMatchesSolo(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, np := 8+rng.Intn(15), 2+rng.Intn(3)
		g := enginetest.RandomGraph(seed, nv, np, 25+rng.Intn(60))
		e := newEngine(g, ring.WaveletMatrix)

		for round := 0; round < 4; round++ {
			// A batch of 2–8 members with random shapes; several members
			// often share an expression, exercising the shared memo.
			k := 2 + rng.Intn(7)
			gqs := make([]*GroupQuery, k)
			results := make([][]enginetest.Pair, k)
			for i := 0; i < k; i++ {
				expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
				q := Query{Subject: Variable, Expr: expr, Object: Variable}
				switch rng.Intn(5) {
				case 0, 1: // const object: the groupable fast lane
					q.Object = int64(rng.Intn(nv))
				case 2: // const subject: groupable via inversion
					q.Subject = int64(rng.Intn(nv))
				case 3: // both const: solo fallback
					q.Subject, q.Object = int64(rng.Intn(nv)), int64(rng.Intn(nv))
				}
				i := i
				gqs[i] = &GroupQuery{
					Query: q,
					Emit: func(s, o uint32) bool {
						results[i] = append(results[i], enginetest.Pair{S: s, O: o})
						return true
					},
				}
			}
			e.EvalGroup(gqs)
			for i, gq := range gqs {
				if gq.Err != nil {
					t.Fatalf("seed %d member %d (%s): %v", seed, i, pathexpr.String(gq.Query.Expr), gq.Err)
				}
				got := enginetest.SortPairs(results[i])
				want := enginetest.SortPairs(collect(t, e, gq.Query, Options{}))
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d member %d (%d, %s, %d): grouped=%v solo=%v",
						seed, i, gq.Query.Subject, pathexpr.String(gq.Query.Expr), gq.Query.Object, got, want)
				}
				if gq.Stats.Results != len(got) {
					t.Fatalf("seed %d member %d: Stats.Results=%d, emitted %d",
						seed, i, gq.Stats.Results, len(got))
				}
			}
		}
	}
}

// Per-member limits must hold inside a shared traversal, and a
// limit-stopped member must not disturb its peers.
func TestGroupedLimits(t *testing.T) {
	g := enginetest.RandomGraph(5, 20, 2, 100)
	e := newEngine(g, ring.WaveletMatrix)
	expr := pathexpr.MustParse("(pa|pb)*")
	// Find an object with plenty of sources.
	var full []enginetest.Pair
	obj := int64(0)
	for o := int64(0); o < 20; o++ {
		got := collect(t, e, Query{Subject: Variable, Expr: expr, Object: o}, Options{})
		if len(got) > len(full) {
			full, obj = got, o
		}
	}
	if len(full) < 3 {
		t.Skip("graph too sparse for a limit test")
	}
	var limited, unlimited []enginetest.Pair
	gqs := []*GroupQuery{
		{
			Query: Query{Subject: Variable, Expr: expr, Object: obj},
			Opts:  Options{Limit: 2},
			Emit: func(s, o uint32) bool {
				limited = append(limited, enginetest.Pair{S: s, O: o})
				return true
			},
		},
		{
			Query: Query{Subject: Variable, Expr: expr, Object: obj},
			Emit: func(s, o uint32) bool {
				unlimited = append(unlimited, enginetest.Pair{S: s, O: o})
				return true
			},
		},
	}
	e.EvalGroup(gqs)
	if gqs[0].Err != nil || gqs[1].Err != nil {
		t.Fatalf("errs: %v, %v", gqs[0].Err, gqs[1].Err)
	}
	if len(limited) != 2 {
		t.Fatalf("limited member emitted %d, want 2", len(limited))
	}
	if !reflect.DeepEqual(enginetest.SortPairs(unlimited), enginetest.SortPairs(full)) {
		t.Fatalf("unlimited member disturbed: got %v, want %v", unlimited, full)
	}
}

// A member with an already-hopeless deadline must time out without
// dragging down members that have time (or no deadline at all).
func TestGroupedTimeoutIsolation(t *testing.T) {
	g := enginetest.RandomGraph(9, 200, 2, 4000)
	e := newEngine(g, ring.WaveletMatrix)
	expr := pathexpr.MustParse("(pa|pb)*")
	var okPairs []enginetest.Pair
	gqs := []*GroupQuery{
		{
			Query: Query{Subject: Variable, Expr: expr, Object: 0},
			Opts:  Options{Timeout: time.Nanosecond},
			Emit:  func(s, o uint32) bool { return true },
		},
		{
			Query: Query{Subject: Variable, Expr: expr, Object: 1},
			Emit: func(s, o uint32) bool {
				okPairs = append(okPairs, enginetest.Pair{S: s, O: o})
				return true
			},
		},
	}
	start := time.Now()
	e.EvalGroup(gqs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("group took %v, deadline not honoured", elapsed)
	}
	if gqs[0].Err != ErrTimeout {
		t.Fatalf("member 0 err=%v, want ErrTimeout", gqs[0].Err)
	}
	if gqs[1].Err != nil {
		t.Fatalf("member 1 err=%v, want nil", gqs[1].Err)
	}
	want := enginetest.SortPairs(collect(t, e,
		Query{Subject: Variable, Expr: expr, Object: 1}, Options{}))
	if !reflect.DeepEqual(enginetest.SortPairs(okPairs), want) {
		t.Fatalf("surviving member results diverged")
	}
}

// Grouping must not depend on member order: a non-groupable member
// evaluated solo ahead of the groupable ones must not leave them cold
// and interpreted. Each cold groupable member compiles eagerly and joins
// the shared traversal wherever it sits in the batch, so its per-member
// accounting (leaf visits only, see EvalGroup) is the same in every
// order.
func TestGroupingIndependentOfMemberOrder(t *testing.T) {
	g := enginetest.RandomGraph(3, 20, 3, 80)
	batch := func() []*GroupQuery {
		return []*GroupQuery{
			{Query: Query{Subject: 1, Expr: pathexpr.MustParse("pa/pb"), Object: 2}},
			{Query: Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: 3}},
			{Query: Query{Subject: Variable, Expr: pathexpr.MustParse("pc*/pa"), Object: 4}},
		}
	}
	run := func(order []int) []*GroupQuery {
		e := newEngine(g, ring.WaveletMatrix)
		gqs := batch()
		ordered := make([]*GroupQuery, len(order))
		for i, k := range order {
			gqs[k].Emit = func(s, o uint32) bool { return true }
			ordered[i] = gqs[k]
		}
		e.EvalGroup(ordered)
		return gqs
	}
	first := run([]int{1, 2, 0})
	last := run([]int{0, 1, 2})
	for k := 1; k < 3; k++ {
		if first[k].Err != nil || last[k].Err != nil {
			t.Fatalf("member %d: errs %v, %v", k, first[k].Err, last[k].Err)
		}
		if first[k].Stats != last[k].Stats {
			t.Fatalf("member %d (%s): stats %+v after the solo member, %+v before it",
				k, pathexpr.String(first[k].Query.Expr), last[k].Stats, first[k].Stats)
		}
	}
}
