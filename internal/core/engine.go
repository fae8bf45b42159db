// Package core implements the paper's contribution (§4): evaluating 2RPQs
// directly on the ring by traversing, backwards, only the subgraph G'_E of
// the product graph induced by the query.
//
// Each traversal step starts at a range of L_p holding the triples with
// the current object and proceeds in three parts:
//
//  1. find the distinct predicates leading into the object whose targets
//     include an active NFA state, by descending the wavelet tree of L_p
//     pruned with per-node B[v] masks (Fact 1 confines the predicate's
//     influence to B, so one mask test per node suffices);
//  2. find the distinct source subjects per predicate by descending the
//     wavelet tree of L_s pruned with per-node visited-state masks D[v],
//     which also prevents loops in the product graph;
//  3. re-interpret each subject as an object via C_o and continue.
//
// The bit-parallel Glushkov simulation advances all active NFA states at
// once, and starting v→v queries from the full L_p range advances all
// graph nodes at once — the two speedups over classical node-at-a-time
// product-graph search that the paper highlights.
package core

import (
	"context"
	"errors"
	"time"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// Variable marks a query endpoint as unbound.
const Variable int64 = -1

// Query is a 2RPQ (s, E, o) over dictionary-encoded ids: Subject and
// Object are node ids, or Variable.
type Query struct {
	Subject int64
	Expr    pathexpr.Node
	Object  int64
}

// Options tune one evaluation.
type Options struct {
	// Limit caps the number of emitted results; 0 means unlimited.
	Limit int
	// Timeout bounds wall-clock evaluation time; 0 means none.
	Timeout time.Duration
	// DisableFastPaths forces the generic product-graph algorithm even
	// for the join-like patterns of §5 (used by the ablation benchmark).
	DisableFastPaths bool
	// DisableNodeMarks turns off the per-wavelet-node visited masks D[v]
	// (§4.2), keeping only per-subject marks (ablation).
	DisableNodeMarks bool
	// CompileEager compiles the expression into a specialized stepper on
	// first use instead of waiting for it to get hot (the tests and
	// rpqbench -compiled use this).
	CompileEager bool
	// DisableCompiled forces the generic interpreted simulation — the
	// multiword fallback kept for wide (>64-state) expressions — even
	// for expressions the compilation tier could specialize. It is the
	// ablation baseline ("interpreted" in BENCH_PR7.json) and the
	// differential oracle: the fallback interprets the automaton with
	// per-step multiword masks and a visited hash map, with none of the
	// flat B[v]/D[v] wavelet-node pruning arrays or compiled steppers.
	DisableCompiled bool
	// Trace, when non-nil, records a traverse span with the evaluation's
	// Stats plus one span per BFS level (frontier size, wavelet-node
	// visits). Nil — the default — records nothing and costs one pointer
	// test per level.
	Trace *obs.Trace
}

// ErrTimeout reports that evaluation exceeded Options.Timeout.
var ErrTimeout = errors.New("core: query timeout")

// errLimit stops the traversal when the result limit is hit; it is
// internal and mapped to a nil error (truncated results are still valid).
var errLimit = errors.New("core: result limit")

// Stats counts the work of one evaluation; the Theorem 4.1 test checks
// these against the size of the induced product subgraph.
type Stats struct {
	// ProductNodes counts (node, state) pairs activated for the first
	// time, i.e. visited nodes of G'_E.
	ProductNodes int
	// ProductEdges counts backward-search steps taken (predicate leaves
	// reached in part 1), i.e. traversed edge groups of G'_E.
	ProductEdges int
	// WaveletVisits counts wavelet-tree nodes touched in parts 1 and 2.
	WaveletVisits int
	// Results counts emitted pairs.
	Results int
}

// EmitFunc receives one (subject, object) result pair. Returning false
// stops the evaluation early.
type EmitFunc func(s, o uint32) bool

// FoldContext merges ctx-carried request state into opts: an unset
// Trace is filled from the context (obs.FromContext), and a context
// deadline earlier than Options.Timeout tightens it. Engines call it
// once per evaluation, so ctx costs nothing on the traversal hot path;
// cancellation between results remains the caller's job (the service's
// emit wrapper polls ctx.Err).
func FoldContext(ctx context.Context, opts Options) Options {
	if ctx == nil {
		return opts
	}
	if opts.Trace == nil {
		opts.Trace = obs.FromContext(ctx)
	}
	if d, ok := ctx.Deadline(); ok {
		rem := time.Until(d)
		if rem <= 0 {
			rem = time.Nanosecond // already expired: the first probe fires
		}
		if opts.Timeout == 0 || rem < opts.Timeout {
			opts.Timeout = rem
		}
	}
	return opts
}

// traversal is an engine's narrow (≤64-state) §4 traversal, which the
// shared query drivers of evalState orchestrate.
type traversal interface {
	// prepare compiles expr and installs it on every ring; nil selects
	// the multiword fallback (too wide, or forced by DisableCompiled).
	prepare(expr pathexpr.Node) *glushkov.Engine
	// release resets the working arrays in O(1).
	release()
	// seed starts a traversal at o, visited with the states d (§4.2).
	seed(o uint32, d uint64)
	// run drains the frontier level by level, reporting the nodes that
	// reach the initial state; states in base count as visited
	// everywhere.
	run(base uint64, report EmitFunc) error
	// full expands the whole L_p range of every ring with states d (the
	// level 0 of a v→v query's first phase, §4.4), then runs.
	full(d, base uint64, report EmitFunc) error
}

// evalState is the per-evaluation state of Engine and ShardedEngine,
// and the §4.4 drivers they share: each endpoint shape is orchestrated
// once, over the engine's traversal t, with the multiword fallback of
// wide.go over the memo's rings.
type evalState struct {
	clock     Clock
	stats     Stats
	trace     *obs.Trace
	emit      EmitFunc
	noMarks   bool
	eager     bool
	noCompile bool

	t        traversal
	memo     *Memo
	numNodes int
}

// begin resets the state for one evaluation, wraps emit to count
// results and honour opts.Limit, and opens the traverse span.
func (s *evalState) begin(opts Options, emit EmitFunc) int {
	s.stats = Stats{}
	s.clock.Start(opts.Timeout)
	s.trace = opts.Trace
	s.noMarks = opts.DisableNodeMarks
	s.eager = opts.CompileEager
	s.noCompile = opts.DisableCompiled
	limit := opts.Limit
	s.emit = func(a, b uint32) bool {
		s.stats.Results++
		if !emit(a, b) {
			return false
		}
		return limit == 0 || s.stats.Results < limit
	}
	return s.trace.Begin(obs.SpanTraverse)
}

// end closes the traverse span with the evaluation's Stats; a result
// limit truncates without error.
func (s *evalState) end(sp int, err error) (Stats, error) {
	s.trace.EndVals(sp, int64(s.stats.ProductNodes), int64(s.stats.ProductEdges),
		int64(s.stats.WaveletVisits), int64(s.stats.Results))
	if errors.Is(err, errLimit) {
		err = nil
	}
	return s.stats, err
}

// dispatch routes q to the driver of its endpoint shape.
func (s *evalState) dispatch(q Query) error {
	switch {
	case q.Object != Variable && q.Subject == Variable:
		// (x, E, o): traverse E backwards from o.
		return s.evalToConst(q.Expr, uint32(q.Object), false)
	case q.Subject != Variable && q.Object == Variable:
		// (s, E, y) ≡ (y, Ê, s): traverse Ê backwards from s (§4.4).
		return s.evalToConst(pathexpr.InverseOf(q.Expr), uint32(q.Subject), true)
	case q.Subject != Variable && q.Object != Variable:
		return s.evalBothConst(q.Expr, uint32(q.Subject), uint32(q.Object))
	default:
		return s.evalBothVar(q.Expr)
	}
}

// evalToConst evaluates (x, E, o) for a fixed object o, emitting (s, o)
// pairs — or (o, s) when swap is set (the (s, E, y) rewriting).
func (s *evalState) evalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	eng := s.t.prepare(expr)
	if eng == nil {
		return s.wideEvalToConst(expr, o, swap)
	}
	defer s.t.release()
	if int(o) >= s.numNodes {
		return nil
	}
	// The traversal reports the nodes r reached with the initial state
	// active; the result pair is (r, o) — or (o, r) under the (s, E, y)
	// rewriting, where the fixed endpoint is the subject.
	emit := func(r, _ uint32) bool {
		if swap {
			return s.emit(o, r)
		}
		return s.emit(r, o)
	}
	if eng.A.Nullable && !emit(o, o) {
		return errLimit
	}
	// Mark the start: o has been visited with all final states (§4.2).
	s.t.seed(o, eng.F)
	return s.t.run(0, emit)
}

// evalBothConst evaluates (s, E, o) with both endpoints fixed, stopping
// at the first match (§4.4; this case is excluded from Theorem 4.1).
func (s *evalState) evalBothConst(expr pathexpr.Node, src, o uint32) error {
	eng := s.t.prepare(expr)
	if eng == nil {
		return s.wideEvalBothConst(expr, src, o)
	}
	defer s.t.release()
	if int(o) >= s.numNodes || int(src) >= s.numNodes {
		return nil
	}
	if eng.A.Nullable && src == o {
		s.emit(src, o)
		return nil
	}
	s.t.seed(o, eng.F)
	return s.t.run(0, func(got, _ uint32) bool {
		if got == src {
			s.emit(src, o)
			return false // stop the traversal
		}
		return true
	})
}

// evalBothVar evaluates (x, E, y) (§4.4): a first traversal from the full
// L_p range finds every node that can start a matching path; a second
// per-source traversal enumerates its reachable objects. The orientation
// is chosen by predicate selectivity (§5: "we choose to start from the
// end whose predicate has the smallest cardinality"), applied to the
// per-candidate traversals (see StartFromObjects).
func (s *evalState) evalBothVar(expr pathexpr.Node) error {
	// Nullable expressions relate every node to itself via the empty
	// path; emit those pairs upfront, then suppress (v,v) rediscovery.
	// The loop is O(|V|) before any traversal work, so it honours the
	// deadline too — a short Options.Timeout must be able to interrupt
	// it on large graphs.
	a := s.memo.Get(expr, s.eager, s.noCompile).A
	if a.Nullable {
		for v := 0; v < s.numNodes; v++ {
			if err := s.clock.Check(); err != nil {
				return err
			}
			if !s.emit(uint32(v), uint32(v)) {
				return errLimit
			}
		}
	}

	fromObjects := StartFromObjects(a, func(c uint32) int {
		total := 0
		for _, r := range s.memo.rings {
			total += r.Cp[c+1] - r.Cp[c]
		}
		return total
	})
	phase1Expr, expr2 := expr, pathexpr.InverseOf(expr)
	if fromObjects {
		phase1Expr, expr2 = expr2, expr
	}

	// Phase 1: collect candidate endpoints from the full range.
	var starts []uint32
	collect := func(v, _ uint32) bool {
		starts = append(starts, v)
		return true
	}
	if err := s.fullRangeSources(phase1Expr, collect); err != nil {
		return err
	}

	// Phase 2: one constrained traversal per candidate. The automaton
	// and the B[v] masks depend only on the expression, so they are
	// built once and shared; only the visited marks reset per start.
	phase2 := func(v uint32) EmitFunc { return Phase2Emit(s.emit, v, fromObjects, a.Nullable) }
	eng2 := s.t.prepare(expr2)
	if eng2 == nil {
		for _, v := range starts {
			if err := s.wideRunToConst(expr2, v, phase2(v)); err != nil {
				return err
			}
		}
		return nil
	}
	defer s.t.release()
	for _, v := range starts {
		s.t.seed(v, eng2.F)
		if err := s.t.run(0, phase2(v)); err != nil {
			return err
		}
	}
	return nil
}

// fullRangeSources finds all nodes that can start a path matching expr
// towards some node, starting the backward traversal from the full L_p
// range (the ring's range capability, §4.4).
func (s *evalState) fullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	eng := s.t.prepare(expr)
	if eng == nil {
		return s.wideFullRangeSources(expr, emit)
	}
	defer s.t.release()
	// Every object conceptually starts with the final states active, so
	// states in F (minus the initial state, which carries no outgoing
	// work but must stay reportable) count as already visited everywhere.
	return s.t.full(eng.F, eng.F&^eng.Init, emit)
}

// Phase2Emit is the report of a v→v query's phase-2 traversal from the
// phase-1 candidate v: a traversal of E from an object candidate
// reports sources, one of Ê from a source candidate reports objects.
// Nullable expressions skip (v, v), already emitted upfront.
func Phase2Emit(emit EmitFunc, v uint32, fromObjects, nullable bool) EmitFunc {
	return func(r, _ uint32) bool {
		if nullable && r == v {
			return true
		}
		if fromObjects {
			return emit(r, v)
		}
		return emit(v, r)
	}
}

// StartFromObjects decides the orientation of a v→v query: true means
// phase 1 collects objects (traverses Ê) and phase 2 runs E from each
// of them, false the reverse; card counts the triples of a completed
// predicate. Phase 2 runs once per candidate and each run starts by
// scanning its end's boundary predicates, so it starts at the end
// whose predicates select fewer triples (§5); phase 1 scans the other
// end once, in its full-range batched descent. Ties collect sources.
func StartFromObjects(a *glushkov.Automaton, card func(c uint32) int) bool {
	count := func(positions []int32) int {
		total := 0
		for _, j := range positions {
			if c := a.Syms[j-1]; c != glushkov.NoSymbol {
				total += card(c)
			}
		}
		return total
	}
	// First positions start paths (near subjects), last positions end
	// them (near objects).
	return count(a.Follow[0]) > count(a.Last)
}

// Engine evaluates queries over a ring. It owns reusable working arrays,
// so a single Engine must not be used concurrently; build one per worker.
type Engine struct {
	r   *ring.Ring
	ids glushkov.SymbolIDs
	own *LevelOwner

	// queue collects the frontier's next level.
	queue []Item

	// pairs dedups (s, o) result pairs across the §5 fast-path branches;
	// owned by the engine so fast-path queries allocate nothing.
	pairs pairSet

	evalState
	// init is the initial-state mask of the installed automaton and
	// report the running traversal's report of nodes reaching it.
	init   uint64
	report EmitFunc

	// groupD pools the per-member visited-mask arrays of EvalGroup.
	groupD []*lazy.MaskArray
}

// NewEngine builds an evaluation engine over r. The ids function resolves
// predicate occurrences of query expressions to completed predicate ids
// (e.g. triples.Graph.PredID).
func NewEngine(r *ring.Ring, ids glushkov.SymbolIDs) *Engine {
	e := &Engine{r: r, ids: ids, own: NewLevelOwner(r)}
	e.own.Stats = &e.stats
	e.own.Clock = &e.clock
	e.own.Leaf = e.arrive
	e.t = e
	e.memo = NewMemo(ids, r.NumPreds, []*ring.Ring{r})
	e.numNodes = r.NumNodes
	return e
}

// WorkingSizeBytes reports the per-query working-array footprint (the
// paper's "array D uses 3.09 extra bytes per triple" accounting).
func (e *Engine) WorkingSizeBytes() int { return e.own.SizeBytes() }

// Eval evaluates q, calling emit for every result pair. Pairs are
// distinct (set semantics). It returns the work statistics and ErrTimeout
// if the timeout fired (results emitted so far are valid but incomplete).
// ctx is consulted once at entry (FoldContext): it may carry an obs.Trace
// and tighten the deadline, but is not polled during the traversal.
func (e *Engine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	opts = FoldContext(ctx, opts)
	sp := e.begin(opts, emit)
	// The §5 fast paths take the join-like v→v shapes; everything else
	// runs the generic §4 algorithm.
	if !opts.DisableFastPaths && q.Subject == Variable && q.Object == Variable {
		if done, err := e.tryFastPath(q.Expr); done {
			return e.end(sp, err)
		}
	}
	return e.end(sp, e.dispatch(q))
}

func (e *Engine) prepare(expr pathexpr.Node) *glushkov.Engine {
	if e.noCompile {
		return nil
	}
	c := e.memo.Get(expr, e.eager, false)
	if c.Eng == nil {
		return nil
	}
	e.own.noMarks = e.noMarks
	e.own.Install(c, 0)
	e.init = c.Eng.Init
	return c.Eng
}

func (e *Engine) release() {
	e.own.Release()
	e.queue = e.queue[:0]
}

func (e *Engine) seed(o uint32, d uint64) {
	e.own.ResetMarks()
	e.own.Mark(o, d)
	e.queue = append(e.queue[:0], Item{o, d})
}

func (e *Engine) full(d, base uint64, report EmitFunc) error {
	e.queue = e.queue[:0]
	e.report = report
	if err := e.own.StepFull(d, base); err != nil {
		return err
	}
	return e.run(base, report)
}

// run drains the worklist level-synchronously (§4 parts 1–3 per level).
func (e *Engine) run(base uint64, report EmitFunc) error {
	e.report = report
	for len(e.queue) > 0 {
		if err := e.clock.Check(); err != nil {
			return err
		}
		// The items copy the level out, so the queue can take the next one.
		items := e.own.Items(NextLevel(e.queue))
		e.queue = e.queue[:0]
		sp, visits0 := -1, 0
		if e.trace != nil {
			visits0 = e.stats.WaveletVisits
			sp = e.trace.Begin(obs.SpanLevel)
		}
		err := e.own.StepLevel(items, base)
		e.trace.EndVals(sp, int64(len(items)), int64(e.stats.WaveletVisits-visits0))
		if err != nil {
			return err
		}
	}
	return nil
}

// arrive is the Leaf hook: a subject reached with fresh states is a new
// product-graph node; it is reported when it reaches the initial state
// and enqueued with the remaining states when it has in-edges.
func (e *Engine) arrive(s uint32, _, fresh uint64) error {
	e.stats.ProductNodes++
	if fresh&e.init != 0 {
		if !e.report(s, 0) {
			return errLimit
		}
		fresh &^= e.init // the initial state has no incoming work
	}
	if fresh != 0 && e.r.Co[s+1] > e.r.Co[s] {
		e.queue = append(e.queue, Item{s, fresh})
	}
	return nil
}
