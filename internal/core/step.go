package core

import (
	"cmp"
	"slices"
	"time"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// The §4 step, written once for every engine. A LevelOwner is one
// ring's working state (the B[v] masks of §4.1 over L_p, the D[v] marks
// of §4.2 over L_s) plus the owner's hooks; Engine, ShardedEngine and
// the overlay union engine each drive one owner per ring and differ only
// in what the Leaf hook does with a discovered subject (emit and
// enqueue, record for a cross-shard merge, or dedup against a global
// mask).
//
// A level is expanded in one of two ways, chosen by its size. Small
// levels take the classic per-item descent: each (range, states) item
// pays its own root-to-leaf descent of L_p, and every predicate leaf
// runs its part 2 over L_s at once. Larger levels are frontier-batched:
// part 1 runs as one multi-range wavelet descent that splits the item
// list at each node, the per-predicate L_s ranges it produces are
// accumulated, sorted and coalesced, and part 2 runs as one more
// multi-range descent. The B[v]/D[v] pruning applies per item at every
// node in both, so the Theorem 4.1 work bound holds either way; only
// the shared top-of-tree descents are amortised across the level.

// batchCutoff is the level size (in L_p range items) below which a
// level takes the per-item descent: the batched machinery (sorting,
// item splitting) only pays for itself once several ranges share the
// top of the tree.
const batchCutoff = 4

// Item is one frontier entry: a graph node reached with the automaton
// states D still to expand.
type Item struct {
	Node uint32
	D    uint64
}

// NextLevel sorts the queued frontier by node and merges duplicate
// nodes (the per-item descent may rediscover a node within one level)
// into the union of their states, in place: the level to expand is the
// returned prefix of q.
func NextLevel(q []Item) []Item {
	slices.SortFunc(q, func(a, b Item) int { return cmp.Compare(a.Node, b.Node) })
	k := 0
	for _, it := range q {
		if k > 0 && q[k-1].Node == it.Node {
			q[k-1].D |= it.D
			continue
		}
		q[k] = it
		k++
	}
	return q[:k]
}

// Clock is the amortised deadline probe of one traversal: Check reads
// the wall clock once every 64 calls.
type Clock struct {
	deadline time.Time
	steps    int
}

// Start arms the clock for one evaluation; a zero timeout means none.
func (c *Clock) Start(timeout time.Duration) {
	c.steps = 0
	c.deadline = time.Time{}
	if timeout > 0 {
		c.deadline = time.Now().Add(timeout)
	}
}

// Check reports ErrTimeout once the deadline has passed.
func (c *Clock) Check() error {
	c.steps++
	if c.deadline.IsZero() || c.steps%64 != 0 {
		return nil
	}
	if time.Now().After(c.deadline) {
		return ErrTimeout
	}
	return nil
}

// LevelOwner is one ring's working state for the §4 step and the hooks
// of the engine that drives it. The exported fields are the owner's to
// set; Install, ResetMarks, Mark and Release manage the rest.
type LevelOwner struct {
	R     *ring.Ring
	Stats *Stats
	// Clock is the owner's deadline probe.
	Clock *Clock
	// LeafMask, when non-nil, computes the state mask a part-2 leaf
	// actually receives from its items (default: the OR of the item
	// masks). The overlay union engine drops items whose occurrences of
	// the subject are all tombstoned, keeping part 2 exact without
	// fragmenting the coalesced ranges. At a leaf, item bounds are rank
	// positions among the subject's occurrences in L_s.
	LeafMask func(s uint32, its []wavelet.RangeMask) uint64
	// Leaf handles one subject carrying unvisited states, already marked
	// in D: all is the union of the states that reached it this step,
	// fresh the subset not yet visited there.
	Leaf func(s uint32, all, fresh uint64) error

	// bNode holds the B[v] masks over the wavelet nodes of L_p when the
	// expression is interpreted; bArr replaces it with the compiled
	// expression's immutable array. dNode holds the visited-state marks
	// over the wavelet nodes of L_s: leaf entries are the D[s] of §4.2
	// and internal entries the intersection of their children.
	bNode, dNode *lazy.MaskArray
	bArr         []uint64
	lsPads       []wavelet.NodeID
	// noMarks keeps only per-subject D marks (the §4.2 ablation).
	noMarks bool
	// st steps the automaton: the compiled stepper when the expression
	// is hot, else the interpreting glushkov.Engine.
	st             glushkov.Stepper
	negFwd, negInv uint64

	// lpItems and lsItems are the batched descent's scratch range lists;
	// one is the per-item descent's single part-2 leaf item.
	lpItems, lsItems []wavelet.RangeMask
	one              [1]wavelet.RangeMask
}

// NewLevelOwner allocates the working arrays for r.
func NewLevelOwner(r *ring.Ring) *LevelOwner {
	return &LevelOwner{
		R:      r,
		bNode:  lazy.NewMaskArray(r.Lp.NumNodes()),
		dNode:  lazy.NewMaskArray(r.Ls.NumNodes()),
		lsPads: r.Ls.PadNodes(),
	}
}

// SizeBytes reports the working-array footprint (the paper's "array D
// uses 3.09 extra bytes per triple" accounting).
func (o *LevelOwner) SizeBytes() int { return o.bNode.SizeBytes() + o.dNode.SizeBytes() }

// Install readies the owner to evaluate c as the i-th ring of its
// engine: the compiled stepper with its precomputed B[v] array when the
// expression is hot, else the interpreter with B[v] seeded onto the lazy
// array; visited marks start clear.
func (o *LevelOwner) Install(c *Compiled, i int) {
	o.negFwd, o.negInv = c.Eng.NegClassBits()
	o.st = c.Stepper()
	o.bArr = nil
	o.bNode.Reset()
	if c.St != nil {
		o.bArr = c.BArrs[i]
	} else {
		seedB(o.R.Lp, c.Eng, func(id wavelet.NodeID, m uint64) { o.bNode.Or(int(id), m) })
	}
	o.ResetMarks()
}

// ResetMarks clears the visited marks, keeping B[v]. The padding
// subtrees of L_s count as visited with every state, so that the
// bottom-up intersections are not blocked by leaves that cannot occur.
func (o *LevelOwner) ResetMarks() {
	o.dNode.Reset()
	for _, id := range o.lsPads {
		o.dNode.Set(int(id), ^uint64(0))
	}
}

// Release resets the working arrays in O(1).
func (o *LevelOwner) Release() {
	o.bNode.Reset()
	o.dNode.Reset()
	o.st = nil
	o.bArr = nil
}

// Mark records that node s was visited with the given states (a no-op
// for ids beyond the ring).
func (o *LevelOwner) Mark(s uint32, states uint64) {
	if int(s) < o.R.NumNodes {
		o.markLeaf(o.R.Ls.LeafID(s), states)
	}
}

// markLeaf marks the subject at leaf id and restores the invariant that
// every internal mark is the intersection of its children.
func (o *LevelOwner) markLeaf(leaf wavelet.NodeID, states uint64) {
	if o.noMarks {
		o.dNode.Or(int(leaf), states)
		return
	}
	markSubjectOn(o.dNode, leaf, states)
}

// markSubjectOn is the marking of markLeaf against an arbitrary mask
// array (each EvalGroup member owns one).
func markSubjectOn(d *lazy.MaskArray, leaf wavelet.NodeID, states uint64) {
	d.Or(int(leaf), states)
	for id := leaf.Parent(); id >= 1; id = id.Parent() {
		v := d.Get(int(2*id)) & d.Get(int(2*id+1))
		if v == d.Get(int(id)) {
			break
		}
		d.Set(int(id), v)
	}
}

// Items converts a sorted, duplicate-free level into the ring's sorted
// disjoint L_p range items: object ranges ascend with the node id, and
// adjacent ranges carrying the same states merge into one item. The
// result lives in the owner's scratch until the next call.
func (o *LevelOwner) Items(level []Item) []wavelet.RangeMask {
	items := o.lpItems[:0]
	for _, it := range level {
		if int(it.Node) >= o.R.NumNodes {
			continue
		}
		b, end := o.R.ObjectRange(it.Node)
		if b >= end {
			continue
		}
		if n := len(items); n > 0 && items[n-1].E == b && items[n-1].Mask == it.D {
			items[n-1].E = end
			continue
		}
		items = append(items, wavelet.RangeMask{B: b, E: end, Mask: it.D})
	}
	o.lpItems = items
	return items
}

// StepLevel expands one level's items: per item below batchCutoff,
// batched from there on.
func (o *LevelOwner) StepLevel(items []wavelet.RangeMask, base uint64) error {
	if len(items) >= batchCutoff {
		return o.stepMany(items, base)
	}
	for _, it := range items {
		if err := o.stepOne(it.B, it.E, it.Mask, base); err != nil {
			return err
		}
	}
	return nil
}

// StepFull expands the whole L_p range with states d as one batched
// item: level 0 of a v→v query's first phase (the ring's range
// capability, §4.4).
func (o *LevelOwner) StepFull(d, base uint64) error {
	if o.R.N == 0 {
		return nil
	}
	o.lpItems = append(o.lpItems[:0], wavelet.RangeMask{B: 0, E: o.R.N, Mask: d})
	return o.stepMany(o.lpItems, base)
}

// bMask is the aggregated B[v] mask of L_p node v (Fact 1).
func (o *LevelOwner) bMask(node wavelet.NodeID) uint64 {
	if o.bArr != nil {
		return o.bArr[node]
	}
	return o.bNode.Get(int(node))
}

// negBits is the part-1 filter contribution of negated property sets
// at an L_p node: a class position may be reachable through any node
// that covers symbols of its half of the completed alphabet.
func (o *LevelOwner) negBits(node wavelet.NodeID, negFwd, negInv uint64) uint64 {
	lo, hi := o.R.Lp.SymRange(node)
	half := o.R.NumPreds / 2
	var cb uint64
	if lo < half {
		cb |= negFwd
	}
	if hi > half {
		cb |= negInv
	}
	return cb
}

// keep1 is part 1's pruning at an internal L_p node: descend only
// towards predicates that lead to one of the states d.
func (o *LevelOwner) keep1(node wavelet.NodeID, d, bm uint64) bool {
	if d&bm != 0 {
		return true
	}
	return o.negFwd|o.negInv != 0 && d&o.negBits(node, o.negFwd, o.negInv) != 0
}

// stepOne is the per-item step from the L_p range [b, end) with active
// states d: part 1 over L_p, and at each predicate leaf part 2 over the
// L_s range it maps to.
func (o *LevelOwner) stepOne(b, end int, d, base uint64) error {
	if err := o.Clock.Check(); err != nil {
		return err
	}
	var failure error
	o.R.Lp.Traverse(b, end, func(node wavelet.NodeID, leaf bool, p uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		o.Stats.WaveletVisits++
		if !leaf {
			return o.keep1(node, d, o.bMask(node))
		}
		// A single level can cover an unbounded number of predicate
		// leaves, so the deadline is probed per expansion too.
		if err := o.Clock.Check(); err != nil {
			failure = err
			return false
		}
		bp := o.st.PredMask(p)
		if d&bp == 0 {
			return true
		}
		o.Stats.ProductEdges++
		// The NFA transition is the same for every subject below (Fact 1).
		d2 := o.st.StepBack(d & bp)
		if d2 == 0 {
			return true
		}
		// Backward search step (Eqs. 4–5): the rank range [rb, re) of p
		// plus C_p gives the L_s range of sources.
		failure = o.part2One(o.R.Cp[p]+rb, o.R.Cp[p]+re, d2, base)
		return failure == nil
	})
	return failure
}

// part2One enumerates the distinct subjects of L_s[b, end) that still
// have unvisited states in d2 and hands each to the leaf action.
func (o *LevelOwner) part2One(b, end int, d2, base uint64) error {
	var failure error
	o.R.Ls.Traverse(b, end, func(node wavelet.NodeID, leaf bool, s uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		o.Stats.WaveletVisits++
		visited := o.dNode.Get(int(node)) | base
		if !leaf {
			// Prune subtrees all of whose subjects were already visited
			// with every state in d2.
			return o.noMarks || d2&^visited != 0
		}
		o.one[0] = wavelet.RangeMask{B: rb, E: re, Mask: d2}
		failure = o.leaf(node, s, o.one[:], visited)
		return failure == nil
	})
	return failure
}

// leaf is part 3 at one L_s leaf: the states its items deliver are
// marked and, when some are unvisited, handed to the owner's Leaf.
// Dense objects make one part 2 cover many subject leaves, so the
// deadline is probed per leaf.
func (o *LevelOwner) leaf(node wavelet.NodeID, s uint32, its []wavelet.RangeMask, visited uint64) error {
	if err := o.Clock.Check(); err != nil {
		return err
	}
	var all uint64
	if o.LeafMask != nil {
		all = o.LeafMask(s, its)
	} else {
		for _, it := range its {
			all |= it.Mask
		}
	}
	fresh := all &^ visited
	if fresh == 0 {
		return nil
	}
	o.markLeaf(node, all)
	return o.Leaf(s, all, fresh)
}

// stepMany is the batched step over a whole level: part 1 over L_p in
// one multi-range descent (B[v] pruning per item), part 2 over L_s
// likewise.
func (o *LevelOwner) stepMany(items []wavelet.RangeMask, base uint64) error {
	lsItems := o.lsItems[:0]
	var failure error
	o.R.Lp.TraverseMany(items, func(node wavelet.NodeID, leaf bool, p uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		o.Stats.WaveletVisits++
		if !leaf {
			bm := o.bMask(node)
			k := 0
			for _, it := range its {
				if o.keep1(node, it.Mask, bm) {
					its[k] = it
					k++
				}
			}
			return k
		}
		if err := o.Clock.Check(); err != nil {
			failure = err
			return 0
		}
		// Leaf work is per item, so the visit stat stays comparable with
		// the per-item descent (one visit per frontier item per leaf).
		o.Stats.WaveletVisits += len(its) - 1
		bp := o.st.PredMask(p)
		cp := o.R.Cp[p]
		for _, it := range its {
			d := it.Mask & bp
			if d == 0 {
				continue
			}
			o.Stats.ProductEdges++
			d2 := o.st.StepBack(d)
			if d2 == 0 {
				continue
			}
			b, end := cp+it.B, cp+it.E
			if n := len(lsItems); n > 0 && lsItems[n-1].E == b && lsItems[n-1].Mask == d2 {
				lsItems[n-1].E = end
				continue
			}
			lsItems = append(lsItems, wavelet.RangeMask{B: b, E: end, Mask: d2})
		}
		return 0
	})
	o.lsItems = lsItems
	if failure != nil || len(lsItems) == 0 {
		return failure
	}
	// Leaves of part 1 arrive in bottom-level (bit-reversal) order for
	// the wavelet matrix; restore position order before descending.
	slices.SortFunc(lsItems, func(a, b wavelet.RangeMask) int { return cmp.Compare(a.B, b.B) })
	o.R.Ls.TraverseMany(lsItems, func(node wavelet.NodeID, leaf bool, s uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		o.Stats.WaveletVisits++
		visited := o.dNode.Get(int(node)) | base
		if !leaf {
			if o.noMarks {
				return len(its)
			}
			// Prune items whose subjects below were all already visited
			// with every state they carry.
			k := 0
			for _, it := range its {
				if it.Mask&^visited != 0 {
					its[k] = it
					k++
				}
			}
			return k
		}
		// Each subject reaches the leaf action exactly once per level,
		// with the union of the states that reached it (§4.2–4.3).
		failure = o.leaf(node, s, its, visited)
		return 0
	})
	return failure
}
