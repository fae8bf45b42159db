package overlay

import (
	"context"

	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// Engine evaluates 2RPQs over the union graph ring ∪ adds − dels,
// implementing core.Evaluator so the snapshot layer can swap it in
// wherever a static engine is expected.
//
// It is the third core.Traversal: core.EvalState's §4.4 drivers and
// multiword fallback orchestrate every endpoint shape, exactly as for
// core.Engine and core.ShardedEngine. The traversal under them is the
// paper's backward product-graph search (§4), driven level by level over
// core's one §4 step (core.LevelOwner, per item below the batch cutoff
// and frontier-batched above it), with three departures from
// core.Engine:
//
//   - each level unions the in-edges of its objects across every static
//     sub-ring (one for the single-ring layout, K for a sharded one —
//     all built over global id spaces) and the overlay's sorted adds;
//   - tombstoned static edges are dropped positionally through the
//     LeafMask hook (see batch.go), exactly and without fragmenting the
//     coalesced ranges;
//   - novelty is decided against one global per-node visited mask (the
//     per-ring D[v] marks only prune wavelet subtrees, exactly like the
//     sharded engine's cooperative traversal).
//
// When the query's predicates have no overlay adds or tombstones (and
// nullability cannot surface overlay-only nodes), the whole evaluation
// is delegated to the static engine: a read-mostly workload keeps
// static-path performance even mid-update. Otherwise the union engine
// takes the join-like v→v shapes through its own §5 fast paths
// (fastpath.go), and everything else through the shared drivers.
//
// Like core.Engine it owns working arrays and must not be used
// concurrently; build one per worker clone.
type Engine struct {
	static   core.Evaluator
	rings    []*ring.Ring
	ids      glushkov.SymbolIDs
	numPreds uint32 // completed alphabet size

	ov *Overlay

	work         []*ringWork
	memo         *core.Memo
	pairs        core.PairSet    // fast-path result dedup (see fastpath.go)
	visited      *lazy.MaskArray // global per-node visited-state masks
	queue, level []core.Item

	core.EvalState
	// base holds the states the running traversal counts as visited at
	// every node (see core.Traversal.Run).
	base uint64
	// st, init are the installed automaton's stepper and initial-state
	// mask; report is the running traversal's report of nodes reaching
	// the initial state.
	st     glushkov.Stepper
	init   uint64
	report core.EmitFunc
}

// ringWork is one sub-ring's §4 working state plus its tombstone ranks.
type ringWork struct {
	*core.LevelOwner

	// rankOf memoises each tombstoned triple's leaf rank under its
	// subject in this ring (-1 when it lives in another ring), and ranks
	// is delRanks' scratch: part 2 drops fully-tombstoned leaf items
	// through the LeafMask hook (see batch.go).
	rankOf map[Edge]int
	ranks  []int
}

var _ core.Evaluator = (*Engine)(nil)
var _ core.Traversal = (*Engine)(nil)

// NewEngine builds a union evaluator. static is the snapshot's ordinary
// evaluator (single-ring or sharded engine) used for whole-query
// delegation; rings are its sub-rings over global id spaces; numPreds
// is the completed predicate count. Call SetSnapshot before Eval.
func NewEngine(static core.Evaluator, rings []*ring.Ring, ids glushkov.SymbolIDs, numPreds uint32) *Engine {
	e := &Engine{static: static, rings: rings, ids: ids, numPreds: numPreds, memo: core.NewMemo(ids, numPreds, rings)}
	for _, r := range rings {
		w := &ringWork{LevelOwner: core.NewLevelOwner(r), rankOf: map[Edge]int{}}
		w.Stats = &e.Stats
		w.Clock = &e.Clock
		w.Leaf = func(s uint32, all, _ uint64) error { return e.arrive(s, all) }
		e.work = append(e.work, w)
	}
	e.Init(e, e.memo, 0)
	return e
}

// SetSnapshot points the engine at one overlay version and the node-id
// space of its snapshot (the dictionary length when the snapshot was
// taken, covering every overlay add).
func (e *Engine) SetSnapshot(ov *Overlay, numNodes int) {
	e.ov = ov
	e.NumNodes = numNodes
	if e.visited == nil || e.visited.Len() < numNodes {
		e.visited = lazy.NewMaskArray(numNodes)
	}
}

// staticNumNodes is the id space of the static rings (identical across
// shards by construction).
func (e *Engine) staticNumNodes() int {
	if len(e.rings) == 0 {
		return 0
	}
	return e.rings[0].NumNodes
}

// canDelegate reports whether the static engine alone answers q
// exactly: no automaton predicate is touched by an overlay add or
// tombstone, symbol classes are absent (they read every predicate),
// and nullability cannot relate overlay-only nodes (ids beyond the
// static rings) to themselves.
func (e *Engine) canDelegate(a *glushkov.Automaton) bool {
	if a.HasClasses() {
		return false
	}
	if a.Nullable && e.NumNodes > e.staticNumNodes() {
		return false
	}
	for _, c := range a.Syms {
		if c == glushkov.NoSymbol {
			continue
		}
		if e.ov.TouchesPred(c) {
			return false
		}
	}
	return true
}

// Eval implements core.Evaluator with core.Engine's contract: distinct
// pairs, Options.Limit/Timeout honoured, ErrTimeout with valid partial
// results.
func (e *Engine) Eval(ctx context.Context, q core.Query, opts core.Options, emit core.EmitFunc) (core.Stats, error) {
	if e.ov == nil || e.ov.Empty() || e.canDelegate(e.memo.Get(q.Expr, false).A) {
		return e.static.Eval(ctx, q, opts, emit)
	}
	sp := e.Begin(core.FoldContext(ctx, opts), emit)
	if q.Subject == core.Variable && q.Object == core.Variable {
		if done, err := e.tryFastPath(q.Expr); done {
			return e.End(sp, err)
		}
	}
	return e.End(sp, e.Dispatch(q))
}

// Prepare compiles expr and readies every sub-ring for it (see
// core.LevelOwner.Install), with the tombstone filter of the current
// overlay version.
func (e *Engine) Prepare(expr pathexpr.Node) *glushkov.Engine {
	c := e.memo.Get(expr, false)
	if c.Eng == nil {
		return nil
	}
	e.st = c.Stepper()
	e.init = c.Eng.Init
	for i, w := range e.work {
		w.Install(c, i)
		w.LeafMask = e.leafMaskFor(w)
	}
	return c.Eng
}

// Release resets every per-query working array in O(1).
func (e *Engine) Release() {
	e.visited.Reset()
	for _, w := range e.work {
		w.Release()
	}
	e.queue = e.queue[:0]
}

// Seed starts a traversal at o, visited with the states d.
func (e *Engine) Seed(o uint32, d uint64) {
	e.visited.Reset()
	for _, w := range e.work {
		w.ResetMarks()
	}
	e.markNode(o, d)
	e.queue = append(e.queue[:0], core.Item{Node: o, D: d})
}

// markNode records that node s was visited with states d: the global
// mask plus every sub-ring's D[v] marks.
func (e *Engine) markNode(s uint32, d uint64) {
	e.visited.Or(int(s), d)
	for _, w := range e.work {
		w.Mark(s, d)
	}
}

// arrive processes reaching node s with automaton states d2: dedup
// against the global mask, report when the initial state is reached,
// and enqueue remaining work. It is every ring's Leaf hook and the
// overlay passes' arrival.
func (e *Engine) arrive(s uint32, d2 uint64) error {
	fresh := d2 &^ (e.visited.Get(int(s)) | e.base)
	if fresh == 0 {
		return nil
	}
	e.Stats.ProductNodes++
	e.markNode(s, d2)
	if fresh&e.init != 0 {
		if !e.report(s, 0) {
			return core.ErrLimit
		}
		fresh &^= e.init
	}
	if fresh != 0 && e.hasInEdges(s) {
		e.queue = append(e.queue, core.Item{Node: s, D: fresh})
	}
	return nil
}

// hasInEdges reports whether node s has any union in-edge: enqueueing
// sink nodes would only grow the frontier sorts.
func (e *Engine) hasInEdges(s uint32) bool {
	for _, w := range e.work {
		if int(s) < w.R.NumNodes && w.R.Co[s+1] > w.R.Co[s] {
			return true
		}
	}
	ok := true
	e.ov.InEdges(s, func(uint32, uint32) bool {
		ok = false
		return false
	})
	return !ok
}

// Run drains the worklist level-synchronously: per level, every
// sub-ring's static in-edges, then the overlay adds.
func (e *Engine) Run(base uint64, report core.EmitFunc) error {
	e.base, e.report = base, report
	for len(e.queue) > 0 {
		if err := e.Clock.Check(); err != nil {
			return err
		}
		// Every ring and the adds pass read the level while arrivals
		// refill the queue.
		level := core.NextLevel(e.queue)
		e.queue, e.level = e.level[:0], level
		sp, visits0 := -1, 0
		if e.Trace != nil {
			visits0 = e.Stats.WaveletVisits
			sp = e.Trace.Begin(obs.SpanLevel)
		}
		err := e.stepLevel(level)
		e.Trace.EndVals(sp, int64(len(level)), int64(e.Stats.WaveletVisits-visits0))
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) stepLevel(level []core.Item) error {
	for _, w := range e.work {
		if err := w.StepLevel(w.Items(level), e.base); err != nil {
			return err
		}
	}
	return e.overlayLevel(level)
}

// Full runs phase 1 of a v→v query: every sub-ring's whole L_p range as
// one batched item, and every overlay add, with the states d; then the
// BFS from the candidates found.
func (e *Engine) Full(d, base uint64, report core.EmitFunc) error {
	e.base, e.report = base, report
	for _, w := range e.work {
		if err := w.StepFull(d, base); err != nil {
			return err
		}
	}
	if err := e.overlayFullRange(d); err != nil {
		return err
	}
	return e.Run(base, report)
}

// overlayFullRange feeds every overlay add into the full-range phase-1
// step: each edge's target conceptually holds the states d.
func (e *Engine) overlayFullRange(d uint64) error {
	var failure error
	e.ov.EachAdd(func(ed Edge) bool {
		failure = e.stepAdd(d, ed.P, ed.S)
		return failure == nil
	})
	return failure
}

// stepAdd NFA-steps the overlay add (s, p, ·) out of an object holding
// states d. The deadline is probed per add: one level can touch many.
func (e *Engine) stepAdd(d uint64, p, s uint32) error {
	if err := e.Clock.Check(); err != nil {
		return err
	}
	bp := e.st.PredMask(p)
	if d&bp == 0 {
		return nil
	}
	e.Stats.ProductEdges++
	d2 := e.st.StepBack(d & bp)
	if d2 == 0 {
		return nil
	}
	return e.arrive(s, d2)
}

// Card counts the union triples of completed predicate p: the rings'
// plus the overlay's adds minus its tombstones.
func (e *Engine) Card(p uint32) int {
	// predTouch counts adds and tombstones together.
	total := e.ov.predTouch[p] - 2*e.ov.predDels[p]
	for _, w := range e.work {
		total += w.R.Cp[p+1] - w.R.Cp[p]
	}
	return total
}

// InEdges streams the union in-edges of object o (of every node when o
// is core.Variable) to the multiword fallback, edge by edge.
func (e *Engine) InEdges(o int64, step func(p uint32) func(s uint32) bool) {
	each := func(p, s uint32) bool {
		if f := step(p); f != nil {
			return f(s)
		}
		return true
	}
	if o != core.Variable {
		EachInEdge(e.rings, e.ov, uint32(o), each)
		return
	}
	for v := 0; v < e.NumNodes; v++ {
		if !EachInEdge(e.rings, e.ov, uint32(v), each) {
			return
		}
	}
}
