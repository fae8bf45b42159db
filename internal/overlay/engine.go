package overlay

import (
	"context"
	"errors"

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
// The traversal is the paper's backward product-graph search (§4),
// driven level by level over core's one §4 step (core.LevelOwner, per
// item below the batch cutoff and frontier-batched above it), with
// three departures from core.Engine:
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
// static-path performance even mid-update. Otherwise Options apply as
// for core.Engine: the union engine has its own §5 fast paths
// (fastpath.go), which DisableFastPaths turns off.
//
// Like core.Engine it owns working arrays and must not be used
// concurrently; build one per worker clone.
type Engine struct {
	static   core.Evaluator
	rings    []*ring.Ring
	ids      glushkov.SymbolIDs
	numPreds uint32 // completed alphabet size

	ov       *Overlay
	numNodes int // snapshot dictionary size ≥ every ring's NumNodes

	work         []*ringWork
	memo         *core.Memo
	pairs        core.PairSet    // fast-path result dedup (see fastpath.go)
	visited      *lazy.MaskArray // global per-node visited-state masks
	queue, level []core.Item

	// per-evaluation state
	stats     core.Stats
	trace     *obs.Trace
	clock     core.Clock
	base      uint64
	eager     bool
	noCompile bool
	fastErr   error
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

// errLimit mirrors core's internal limit sentinel.
var errLimit = errors.New("overlay: result limit")

// NewEngine builds a union evaluator. static is the snapshot's ordinary
// evaluator (single-ring or sharded engine) used for whole-query
// delegation; rings are its sub-rings over global id spaces; numPreds
// is the completed predicate count. Call SetSnapshot before Eval.
func NewEngine(static core.Evaluator, rings []*ring.Ring, ids glushkov.SymbolIDs, numPreds uint32) *Engine {
	e := &Engine{static: static, rings: rings, ids: ids, numPreds: numPreds, memo: core.NewMemo(ids, numPreds, rings)}
	for _, r := range rings {
		w := &ringWork{LevelOwner: core.NewLevelOwner(r), rankOf: map[Edge]int{}}
		w.Stats = &e.stats
		w.Clock = &e.clock
		w.Leaf = func(s uint32, all, _ uint64) error { return e.arrive(s, all) }
		e.work = append(e.work, w)
	}
	return e
}

// SetSnapshot points the engine at one overlay version and the node-id
// space of its snapshot (the dictionary length when the snapshot was
// taken, covering every overlay add).
func (e *Engine) SetSnapshot(ov *Overlay, numNodes int) {
	e.ov = ov
	e.numNodes = numNodes
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
	if a.Nullable && e.numNodes > e.staticNumNodes() {
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
	if e.ov == nil || e.ov.Empty() {
		return e.static.Eval(ctx, q, opts, emit)
	}
	opts = core.FoldContext(ctx, opts)
	e.eager = opts.CompileEager
	e.noCompile = opts.DisableCompiled
	if c := e.compile(q.Expr); e.canDelegate(c.A) {
		return e.static.Eval(ctx, q, opts, emit)
	}

	e.stats = core.Stats{}
	e.clock.Start(opts.Timeout)
	e.base = 0
	e.trace = opts.Trace
	limit := opts.Limit
	counted := func(s, o uint32) bool {
		e.stats.Results++
		if !emit(s, o) {
			return false
		}
		return limit == 0 || e.stats.Results < limit
	}

	sp := e.trace.Begin(obs.SpanTraverse)
	var err error
	switch {
	case q.Subject == core.Variable && q.Object == core.Variable &&
		!opts.DisableFastPaths && e.tryFastPath(q.Expr, counted):
		err = e.fastErr
	case q.Object != core.Variable && q.Subject == core.Variable:
		err = e.evalToConst(q.Expr, uint32(q.Object), false, counted)
	case q.Subject != core.Variable && q.Object == core.Variable:
		err = e.evalToConst(pathexpr.InverseOf(q.Expr), uint32(q.Subject), true, counted)
	case q.Subject != core.Variable && q.Object != core.Variable:
		err = e.evalBothConst(q.Expr, uint32(q.Subject), uint32(q.Object), counted)
	default:
		err = e.evalBothVar(q.Expr, counted)
	}
	e.trace.EndVals(sp, int64(e.stats.ProductNodes), int64(e.stats.ProductEdges),
		int64(e.stats.WaveletVisits), int64(e.stats.Results))
	if errors.Is(err, errLimit) {
		err = nil
	}
	return e.stats, err
}

// compile returns the memoised compilation of expr under the
// evaluation's stepping-tier options.
func (e *Engine) compile(expr pathexpr.Node) *core.Compiled {
	return e.memo.Get(expr, e.eager, e.noCompile)
}

// install readies every sub-ring for c (see core.LevelOwner.Install),
// with the tombstone filter of the current overlay version.
func (e *Engine) install(c *core.Compiled) {
	e.st = c.Stepper()
	e.init = c.Eng.Init
	for i, w := range e.work {
		w.Install(c, i)
		w.LeafMask = e.leafMaskFor(w)
	}
}

// release resets every per-query working array in O(1).
func (e *Engine) release() {
	e.visited.Reset()
	for _, w := range e.work {
		w.Release()
	}
	e.queue = e.queue[:0]
}

// seed starts a traversal at o, visited with the states d.
func (e *Engine) seed(o uint32, d uint64) {
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
	e.stats.ProductNodes++
	e.markNode(s, d2)
	if fresh&e.init != 0 {
		if !e.report(s, 0) {
			return errLimit
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

// bfs drains the worklist level-synchronously: per level, every
// sub-ring's static in-edges, then the overlay adds.
func (e *Engine) bfs(report core.EmitFunc) error {
	e.report = report
	for len(e.queue) > 0 {
		if err := e.clock.Check(); err != nil {
			return err
		}
		// Every ring and the adds pass read the level while arrivals
		// refill the queue.
		level := core.NextLevel(e.queue)
		e.queue, e.level = e.level[:0], level
		sp, visits0 := -1, 0
		if e.trace != nil {
			visits0 = e.stats.WaveletVisits
			sp = e.trace.Begin(obs.SpanLevel)
		}
		err := e.stepLevel(level)
		e.trace.EndVals(sp, int64(len(level)), int64(e.stats.WaveletVisits-visits0))
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

// evalToConst evaluates (x, E, o) for fixed o, emitting (s, o) pairs —
// or (o, s) when swap is set (the (s, E, y) rewriting of §4.4).
func (e *Engine) evalToConst(expr pathexpr.Node, o uint32, swap bool, emit core.EmitFunc) error {
	pair := func(r, _ uint32) bool {
		if swap {
			return emit(o, r)
		}
		return emit(r, o)
	}
	c := e.compile(expr)
	if c.Eng == nil || e.noCompile {
		return e.wideEvalToConst(expr, o, swap, emit)
	}
	if int(o) >= e.numNodes {
		return nil
	}
	if c.A.Nullable && !pair(o, o) {
		return errLimit
	}
	defer e.release()
	e.install(c)
	e.seed(o, c.Eng.F)
	return e.bfs(pair)
}

// evalBothConst evaluates (s, E, o), stopping at the first match.
func (e *Engine) evalBothConst(expr pathexpr.Node, s, o uint32, emit core.EmitFunc) error {
	c := e.compile(expr)
	if c.Eng == nil || e.noCompile {
		return e.wideEvalBothConst(expr, s, o, emit)
	}
	if int(o) >= e.numNodes || int(s) >= e.numNodes {
		return nil
	}
	if c.A.Nullable && s == o {
		emit(s, o)
		return nil
	}
	defer e.release()
	e.install(c)
	e.seed(o, c.Eng.F)
	return e.bfs(func(got, _ uint32) bool {
		if got == s {
			emit(s, o)
			return false
		}
		return true
	})
}

// evalBothVar evaluates (x, E, y): nullable self-pairs first, then a
// full-range phase collecting candidate endpoints, then one
// constrained traversal per candidate (§4.4's two-phase strategy).
// The orientation is core.StartFromObjects': phase 2 starts at the end
// whose boundary predicates select fewer triples, the cardinalities
// counting overlay adds alongside the rings.
func (e *Engine) evalBothVar(expr pathexpr.Node, emit core.EmitFunc) error {
	c := e.compile(expr)
	if c.Eng == nil || e.noCompile {
		return e.wideEvalBothVar(expr, emit)
	}
	nullable := c.A.Nullable
	if nullable {
		for v := 0; v < e.numNodes; v++ {
			if err := e.clock.Check(); err != nil {
				return err
			}
			if !emit(uint32(v), uint32(v)) {
				return errLimit
			}
		}
	}

	fromObjects := core.StartFromObjects(c.A, func(p uint32) int {
		total := e.ov.predTouch[p] - e.ov.predDels[p]
		for _, w := range e.work {
			total += w.R.Cp[p+1] - w.R.Cp[p]
		}
		return total
	})
	phase1Expr, phase2Expr := expr, pathexpr.InverseOf(expr)
	if fromObjects {
		phase1Expr, phase2Expr = phase2Expr, phase1Expr
	}

	// Phase 1: every endpoint conceptually starts with the final states
	// active (F minus the initial state counts as visited everywhere);
	// collect the candidates that reach the initial state.
	var starts []uint32
	collect := func(s, _ uint32) bool {
		starts = append(starts, s)
		return true
	}
	c1 := e.compile(phase1Expr)
	e.install(c1)
	e.base = c1.Eng.F &^ c1.Eng.Init
	err := e.full(c1.Eng.F, collect)
	e.base = 0
	e.release()
	if err != nil {
		return err
	}

	// Phase 2: one constrained traversal per candidate, in the other
	// orientation.
	c2 := e.compile(phase2Expr)
	defer e.release()
	e.install(c2)
	for _, s := range starts {
		e.seed(s, c2.Eng.F)
		if err := e.bfs(core.Phase2Emit(emit, s, fromObjects, nullable)); err != nil {
			return err
		}
	}
	return nil
}

// full runs phase 1 of a v→v query: every sub-ring's whole L_p range as
// one batched item, and every overlay add, with the states d; then the
// BFS from the candidates found.
func (e *Engine) full(d uint64, report core.EmitFunc) error {
	e.report = report
	for _, w := range e.work {
		if err := w.StepFull(d, e.base); err != nil {
			return err
		}
	}
	if err := e.overlayFullRange(d); err != nil {
		return err
	}
	return e.bfs(report)
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
	if err := e.clock.Check(); err != nil {
		return err
	}
	bp := e.st.PredMask(p)
	if d&bp == 0 {
		return nil
	}
	e.stats.ProductEdges++
	d2 := e.st.StepBack(d & bp)
	if d2 == 0 {
		return nil
	}
	return e.arrive(s, d2)
}
