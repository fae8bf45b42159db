package core

import (
	"context"
	"runtime"
	"sync"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// Evaluator is the query-evaluation capability shared by the
// single-ring Engine and the ShardedEngine; the public DB selects one
// at build/load time. Eval takes the request context first (the repo's
// ctx-first convention, enforced by rpqlint's ctxfirst analyzer): ctx
// may carry an obs.Trace and a deadline, folded into Options once at
// entry via FoldContext.
type Evaluator interface {
	Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error)
}

// ShardedEngine evaluates 2RPQs over a ring.ShardSet.
//
// Because a matching path may use edges of several shards, the query
// cannot simply be evaluated per shard and the results unioned. Two
// strategies keep evaluation exact:
//
//   - Routing: when every predicate the expression mentions maps to the
//     same shard, every edge of every matching path lives there, and the
//     whole query is delegated to that shard's ordinary Engine (§5 fast
//     paths included). Single-predicate queries — the bulk of real logs —
//     always take this path.
//
//   - Cooperative traversal: otherwise the product-graph BFS of §4 runs
//     level-synchronised across shards. Each level, every shard expands
//     the shared frontier over its own sub-ring concurrently (parts 1–2
//     with per-shard B[v]/D[v] masks); a single-threaded merge then
//     deduplicates discoveries against a global per-node visited mask,
//     emits sources, and forms the next frontier. This explores exactly
//     the product subgraph G'_E of the union graph — the per-shard D
//     marks only prune locally re-discovered subjects, and the global
//     mask decides novelty — so the result set matches the unsharded
//     engine's.
//
// Expressions beyond the 64-state bit-parallel engine fall back to the
// sequential multiword BFS of wide.go, which steps through every shard
// in turn (correct, not parallel; such expressions are vanishingly
// rare).
//
// Like Engine, a ShardedEngine owns reusable working arrays and must
// not be used concurrently; build one per worker. Within one
// evaluation it fans out across shards with goroutines of its own.
type ShardedEngine struct {
	set *ring.ShardSet
	ids glushkov.SymbolIDs

	// engines holds per-shard delegation engines, created on first
	// route to the shard.
	engines []*Engine
	// workers drive the cooperative traversal, one per shard.
	workers []*shardWorker
	// d is the global visited-state mask per graph node: the merge-side
	// source of truth the per-shard D[v] marks approximate.
	d *lazy.MaskArray

	// parallel enables the per-level shard fan-out goroutines.
	parallel bool

	// queue collects the frontier's next level.
	queue []Item

	evalState
	// init is the initial-state mask of the installed automaton.
	init uint64
}

var _ Evaluator = (*ShardedEngine)(nil)
var _ Evaluator = (*Engine)(nil)

// NewShardedEngine builds an evaluation engine over set. The ids
// function resolves predicate occurrences exactly as for NewEngine.
func NewShardedEngine(set *ring.ShardSet, ids glushkov.SymbolIDs) *ShardedEngine {
	e := &ShardedEngine{
		set:      set,
		ids:      ids,
		engines:  make([]*Engine, set.K),
		workers:  make([]*shardWorker, set.K),
		d:        lazy.NewMaskArray(set.NumNodes),
		parallel: set.K > 1 && runtime.GOMAXPROCS(0) > 1,
	}
	for i, r := range set.Shards {
		e.workers[i] = newShardWorker(r)
	}
	e.t = e
	e.memo = NewMemo(ids, set.NumPreds, set.Shards)
	e.numNodes = set.NumNodes
	return e
}

// WorkingSizeBytes reports the per-query working-array footprint across
// all shards (the sharded analogue of Engine.WorkingSizeBytes).
func (e *ShardedEngine) WorkingSizeBytes() int {
	sz := e.d.SizeBytes()
	for _, w := range e.workers {
		sz += w.SizeBytes()
	}
	return sz
}

// Eval evaluates q with the same contract as Engine.Eval: distinct
// result pairs, ErrTimeout on an exceeded deadline (partial results
// remain valid). Result order is unspecified and generally differs
// from the unsharded engine's; the result set does not. A multi-shard
// query needs no §5 fast paths: those shapes mention at most two
// predicates, and whenever those share a shard the query is delegated.
func (e *ShardedEngine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	if shard, ok := e.route(q.Expr); ok {
		return e.engineFor(shard).Eval(ctx, q, opts, emit)
	}
	opts = FoldContext(ctx, opts)
	sp := e.begin(opts, emit)
	return e.end(sp, e.dispatch(q))
}

// route reports the one shard that holds every edge a path matching
// expr could use, when such a shard exists. Unknown predicates match
// nothing and do not constrain the choice; expressions mentioning no
// known predicate (empty or ε-only languages) evaluate correctly on
// any shard because all shards share the global node space.
func (e *ShardedEngine) route(expr pathexpr.Node) (int, bool) {
	if e.set.K == 1 {
		return 0, true
	}
	if pathexpr.HasNegSets(expr) {
		// A negated property set may read any predicate outside its
		// exclusion list, which spans shards in general.
		return 0, false
	}
	shard := -1
	for _, s := range pathexpr.Predicates(expr) {
		id, ok := e.ids(s)
		if !ok {
			continue
		}
		k := e.set.ShardFor(id)
		if shard == -1 {
			shard = k
			continue
		}
		if shard != k {
			return 0, false
		}
	}
	if shard == -1 {
		shard = 0
	}
	return shard, true
}

// engineFor returns the shard's delegation engine, building it on
// first use.
func (e *ShardedEngine) engineFor(k int) *Engine {
	if e.engines[k] == nil {
		e.engines[k] = NewEngine(e.set.Shards[k], e.ids)
	}
	return e.engines[k]
}

// prepare compiles expr and readies every shard worker.
func (e *ShardedEngine) prepare(expr pathexpr.Node) *glushkov.Engine {
	if e.noCompile {
		return nil
	}
	c := e.memo.Get(expr, e.eager, false)
	if c.Eng == nil {
		return nil
	}
	e.init = c.Eng.Init
	e.d.Reset()
	for i, w := range e.workers {
		w.noMarks = e.noMarks
		w.Install(c, i)
		w.found = w.found[:0]
		w.stats = Stats{}
		w.err = nil
		w.clock = Clock{deadline: e.clock.deadline}
	}
	return c.Eng
}

// release folds the workers' traversal statistics into the evaluation
// stats and resets their working arrays in O(1).
func (e *ShardedEngine) release() {
	for _, w := range e.workers {
		e.stats.ProductEdges += w.stats.ProductEdges
		e.stats.WaveletVisits += w.stats.WaveletVisits
		w.Release()
	}
	e.queue = e.queue[:0]
}

func (e *ShardedEngine) seed(o uint32, d uint64) {
	e.d.Reset()
	e.d.Set(int(o), d)
	for _, w := range e.workers {
		w.ResetMarks()
		w.Mark(o, d)
	}
	e.queue = append(e.queue[:0], Item{o, d})
}

func (e *ShardedEngine) full(d, base uint64, report EmitFunc) error {
	e.queue = e.queue[:0]
	e.forEachWorker(func(w *shardWorker) {
		if w.err == nil {
			w.err = w.StepFull(d, base)
		}
	})
	if err := e.collect(base, report); err != nil {
		return err
	}
	return e.run(base, report)
}

// run drains the frontier level by level: every shard expands the whole
// level over its own sub-ring (concurrently when enabled), then the
// single-threaded merge dedups, emits and builds the next level.
func (e *ShardedEngine) run(base uint64, report EmitFunc) error {
	for len(e.queue) > 0 {
		if err := e.clock.Check(); err != nil {
			return err
		}
		level := NextLevel(e.queue)
		sp, visits0 := -1, 0
		if e.trace != nil {
			visits0 = e.shardVisits()
			sp = e.trace.Begin(obs.SpanLevel)
		}
		// The level is shared read-only; each worker builds its own item
		// list over its sub-ring.
		e.forEachWorker(func(w *shardWorker) {
			if w.err == nil {
				w.err = w.StepLevel(w.Items(level), base)
			}
		})
		// The workers are done with the level; the merge refills the
		// queue with the next one.
		e.queue = e.queue[:0]
		err := e.collect(base, report)
		e.trace.EndVals(sp, int64(len(level)), int64(e.shardVisits()-visits0))
		if err != nil {
			return err
		}
	}
	return nil
}

// shardVisits sums the in-flight per-worker wavelet-visit counters
// (folded into e.stats only at release time), for level-span deltas.
func (e *ShardedEngine) shardVisits() int {
	total := 0
	for _, w := range e.workers {
		total += w.stats.WaveletVisits
	}
	return total
}

// forEachWorker applies f to every shard worker, concurrently when the
// engine runs parallel. f must only touch its worker's private state.
func (e *ShardedEngine) forEachWorker(f func(*shardWorker)) {
	if !e.parallel {
		for _, w := range e.workers {
			f(w)
		}
		return
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// collect merges the shards' level discoveries: globally-new states are
// recorded in the per-node mask, sources are reported once, and
// remaining new states form the next level. Running single-threaded
// keeps emission and dedup free of locks.
func (e *ShardedEngine) collect(base uint64, report EmitFunc) error {
	for _, w := range e.workers {
		if w.err != nil {
			return w.err
		}
	}
	var failure error
	for _, w := range e.workers {
		for _, it := range w.found {
			if failure != nil {
				break
			}
			fresh := it.D &^ (e.d.Get(int(it.Node)) | base)
			if fresh == 0 {
				continue
			}
			e.d.Or(int(it.Node), fresh)
			e.stats.ProductNodes++
			if fresh&e.init != 0 {
				if !report(it.Node, 0) {
					failure = errLimit
					break
				}
				fresh &^= e.init // the initial state has no incoming work
			}
			if fresh != 0 {
				e.queue = append(e.queue, Item{it.Node, fresh})
			}
		}
		w.found = w.found[:0]
	}
	return failure
}

// shardWorker owns one shard's traversal state: the LevelOwner over the
// shard's own sequences, its own deadline probe and counters, and the
// discovery list handed to the merge after each level. Workers never
// emit or dedup globally — that is the merge's job — so a level can run
// on all shards concurrently without locks.
type shardWorker struct {
	*LevelOwner
	clock Clock
	stats Stats
	// found accumulates this level's (subject, states) discoveries.
	found []Item
	err   error
}

func newShardWorker(r *ring.Ring) *shardWorker {
	w := &shardWorker{LevelOwner: NewLevelOwner(r)}
	w.Stats = &w.stats
	w.Clock = &w.clock
	w.Leaf = func(s uint32, all, _ uint64) error {
		// The merge counts ProductNodes and decides global novelty; the
		// worker only reports what reached the subject locally.
		w.found = append(w.found, Item{s, all})
		return nil
	}
	return w
}
