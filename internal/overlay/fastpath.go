package overlay

import (
	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// This file is the union engine's analogue of core's §5 fast paths for
// the frequent join-like v→v shapes: a single predicate or an
// alternation of predicates. The answer is a direct scan — static
// pred-range extraction per sub-ring (minus tombstones) unioned with
// the overlay's predicate-major adds — instead of a generic
// product-graph traversal, which matters because these shapes dominate
// real logs and produce the largest result sets.

// tryFastPath handles (x, E, y) when E flattens to symbols or is a
// two-symbol concatenation; reports whether it ran (result or error
// left in e.fastErr).
func (e *Engine) tryFastPath(expr pathexpr.Node, emit core.EmitFunc) bool {
	if x, ok := expr.(pathexpr.Concat); ok {
		l, lok := x.L.(pathexpr.Sym)
		r, rok := x.R.(pathexpr.Sym)
		if lok && rok {
			e.fastErr = e.fastConcat2(l, r, emit)
			return true
		}
		return false
	}
	syms, ok := flattenAltSyms(expr)
	if !ok {
		return false
	}
	e.fastErr = nil
	// Pair dedup across branches (two predicates may connect the same
	// pair) via the engine-owned paged bitset: zero steady-state
	// allocation, like core's §5 paths. Within one branch pairs are
	// distinct by construction — sub-rings partition the static triples
	// and overlay adds are disjoint from them — so single-symbol
	// expressions skip the probes entirely.
	e.pairs.Reset()
	dedup := len(syms) > 1
	for _, sym := range syms {
		p, found := e.ids(sym)
		if !found {
			continue // unknown predicate matches nothing
		}
		if err := e.fastSingle(p, dedup, emit); err != nil {
			e.fastErr = err
			break
		}
	}
	return true
}

// flattenAltSyms collects the leaves of an alternation tree if they
// are all plain symbols.
func flattenAltSyms(n pathexpr.Node) ([]pathexpr.Sym, bool) {
	switch x := n.(type) {
	case pathexpr.Sym:
		return []pathexpr.Sym{x}, true
	case pathexpr.Alt:
		l, lok := flattenAltSyms(x.L)
		r, rok := flattenAltSyms(x.R)
		if lok && rok {
			return append(l, r...), true
		}
	}
	return nil, false
}

// fastSingle emits every union pair (s, o) with (s, p, o) ∈ U: per
// sub-ring, the distinct subjects of L_s[C_p[p], C_p[p+1]) each
// backward-step their object range by p̂ to list their objects (§5),
// tombstones dropped; then the overlay's adds for p.
func (e *Engine) fastSingle(p uint32, dedup bool, emit core.EmitFunc) error {
	half := e.numPreds / 2
	pInv := p + half
	if p >= half {
		pInv = p - half
	}
	checkDels := e.ov.DelsForPred(p) > 0
	deliver := func(s, o uint32) error {
		if dedup && !e.pairs.Add(s, o) {
			return nil
		}
		if !emit(s, o) {
			return errLimit
		}
		return nil
	}
	for _, w := range e.work {
		r := w.R
		b, end := r.PredRange(p)
		if b == end {
			continue
		}
		var failure error
		r.Ls.Traverse(b, end, func(_ wavelet.NodeID, leaf bool, s uint32, _, _ int, _ bool) bool {
			if failure != nil {
				return false
			}
			e.stats.WaveletVisits++
			if !leaf {
				return true
			}
			if err := e.clock.Check(); err != nil {
				failure = err
				return false
			}
			// Objects of (s, p, ·) are the subjects of the (p̂, object=s)
			// range: one backward-search step from s's object range.
			ob, oe := r.ObjectRange(s)
			lsB, lsE := r.BackwardByPred(ob, oe, pInv)
			r.Ls.Traverse(lsB, lsE, func(_ wavelet.NodeID, leaf2 bool, o uint32, _, _ int, _ bool) bool {
				if failure != nil {
					return false
				}
				e.stats.WaveletVisits++
				if !leaf2 {
					return true
				}
				if checkDels && e.ov.Deleted(Edge{S: s, P: p, O: o}) {
					return true
				}
				if err := deliver(s, o); err != nil {
					failure = err
					return false
				}
				return true
			})
			return failure == nil
		})
		if failure != nil {
			return failure
		}
	}
	var failure error
	e.ov.AddsForPred(p, func(s, o uint32) bool {
		if err := deliver(s, o); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}

// fastConcat2 evaluates (x, p1/p2, y) over the union graph: the middle
// nodes z are the union targets of p1 intersected with the union
// sources of p2; for each z, the sources by p1 and the objects by p2
// are materialised (static backward steps minus tombstones, plus the
// overlay's sorted adds) and cross-multiplied (§5's join-like shape).
func (e *Engine) fastConcat2(s1, s2 pathexpr.Sym, emit core.EmitFunc) error {
	p1, ok1 := e.ids(s1)
	p2, ok2 := e.ids(s2)
	if !ok1 || !ok2 {
		return nil
	}
	half := e.numPreds / 2
	inv := func(p uint32) uint32 {
		if p < half {
			return p + half
		}
		return p - half
	}
	p1Inv, p2Inv := inv(p1), inv(p2)
	del1 := e.ov.DelsForPred(p1) > 0
	del2 := e.ov.DelsForPred(p2) > 0
	e.pairs.Reset()

	var srcs, dsts []uint32
	perMiddle := func(z uint32) error {
		if err := e.clock.Check(); err != nil {
			return err
		}
		srcs, dsts = srcs[:0], dsts[:0]
		for _, w := range e.work {
			if int(z) >= w.R.NumNodes {
				continue
			}
			ob, oe := w.R.ObjectRange(z)
			if ob == oe {
				continue
			}
			srcB, srcE := w.R.BackwardByPred(ob, oe, p1)
			if srcB < srcE {
				wavelet.RangeDistinct(w.R.Ls, srcB, srcE, func(s uint32, _, _ int) {
					if !del1 || !e.ov.Deleted(Edge{S: s, P: p1, O: z}) {
						srcs = append(srcs, s)
					}
				})
			}
			dstB, dstE := w.R.BackwardByPred(ob, oe, p2Inv)
			if dstB < dstE {
				wavelet.RangeDistinct(w.R.Ls, dstB, dstE, func(o uint32, _, _ int) {
					if !del2 || !e.ov.Deleted(Edge{S: z, P: p2, O: o}) {
						dsts = append(dsts, o)
					}
				})
			}
		}
		// Overlay in-edges of z by p1 (sources) and out-edges by p2.
		e.ov.AddsForPredSubject(p1Inv, z, func(s uint32) bool {
			srcs = append(srcs, s)
			return true
		})
		e.ov.AddsForPredSubject(p2, z, func(o uint32) bool {
			dsts = append(dsts, o)
			return true
		})
		for _, s := range srcs {
			for _, o := range dsts {
				if !e.pairs.Add(s, o) {
					continue
				}
				if !emit(s, o) {
					return errLimit
				}
			}
		}
		return nil
	}

	// Middle nodes: the static targets of p1 (the p̂1 block lives in
	// exactly one sub-ring), then overlay targets not already seen.
	zSeen := map[uint32]bool{}
	var failure error
	for _, w := range e.work {
		b, end := w.R.PredRange(p1Inv)
		if b == end {
			continue
		}
		wavelet.RangeDistinct(w.R.Ls, b, end, func(z uint32, _, _ int) {
			if failure != nil {
				return
			}
			zSeen[z] = true
			if err := perMiddle(z); err != nil {
				failure = err
			}
		})
		if failure != nil {
			return failure
		}
	}
	e.ov.AddsForPred(p1, func(_, z uint32) bool {
		if zSeen[z] {
			return true
		}
		zSeen[z] = true
		if err := perMiddle(z); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}
