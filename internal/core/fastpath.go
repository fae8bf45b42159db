package core

import (
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// tryFastPath handles the variable-to-variable query shapes that §5
// implements "more efficiently using just backward search and the
// extended functionality of wavelet trees": single predicates (v p v,
// v ^p v), two-step concatenations (v p1/p2 v, v p1/^p2 v, …), and
// alternations of such shapes (v | v, v || v). It reports whether the
// shape was recognised and handled.
func (e *Engine) tryFastPath(expr pathexpr.Node) (bool, error) {
	switch x := expr.(type) {
	case pathexpr.Sym:
		e.pairs.reset()
		return true, e.fastSingle(x)
	case pathexpr.Concat:
		l, lok := x.L.(pathexpr.Sym)
		r, rok := x.R.(pathexpr.Sym)
		if lok && rok {
			e.pairs.reset()
			return true, e.fastConcat2(l, r)
		}
	case pathexpr.Alt:
		// A (possibly nested) alternation of single symbols: evaluate
		// each branch and deduplicate pairs, as in §5.
		syms, ok := flattenAlt(expr)
		if ok {
			e.pairs.reset()
			for _, s := range syms {
				if err := e.fastSingle(s); err != nil {
					return true, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// flattenAlt collects the leaves of an alternation tree if they are all
// plain symbols.
func flattenAlt(n pathexpr.Node) ([]pathexpr.Sym, bool) {
	switch x := n.(type) {
	case pathexpr.Sym:
		return []pathexpr.Sym{x}, true
	case pathexpr.Alt:
		l, lok := flattenAlt(x.L)
		r, rok := flattenAlt(x.R)
		if lok && rok {
			return append(l, r...), true
		}
	}
	return nil, false
}

// fastSingle evaluates (x, p, y): extract the distinct subjects from
// L_s[C_p[p], C_p[p+1]), then for each subject s backward-step its object
// range by p̂ to list the objects o with (s, p, o) ∈ G (§5). Duplicate
// pairs across branches are suppressed by the engine-owned paged bitset
// e.pairs (the paper uses a hash table for the same purpose), which the
// caller resets before the first branch.
func (e *Engine) fastSingle(sym pathexpr.Sym) error {
	p, ok := e.ids(sym)
	if !ok {
		return nil
	}
	pInv := e.inverse(p)
	pb, pe := e.r.PredRange(p)
	var failure error
	wavelet.RangeDistinct(e.r.Ls, pb, pe, func(s uint32, _, _ int) {
		if failure != nil {
			return
		}
		if err := e.Clock.Check(); err != nil {
			failure = err
			return
		}
		ob, oe := e.r.ObjectRange(s)
		lsB, lsE := e.r.BackwardByPred(ob, oe, pInv)
		wavelet.RangeDistinct(e.r.Ls, lsB, lsE, func(o uint32, _, _ int) {
			if failure != nil {
				return
			}
			if e.pairs.add(s, o) && !e.emit(s, o) {
				failure = ErrLimit
			}
		})
	})
	return failure
}

// fastConcat2 evaluates (x, p1/p2, y): the middle nodes z are the
// intersection of the targets of p1 (subjects of the p̂1 block of L_s)
// and the sources of p2 (subjects of the p2 block); for each z, one
// backward step lists the sources by p1 and the objects by p̂2 (§5).
func (e *Engine) fastConcat2(s1, s2 pathexpr.Sym) error {
	p1, ok1 := e.ids(s1)
	p2, ok2 := e.ids(s2)
	if !ok1 || !ok2 {
		return nil
	}
	p1Inv, p2Inv := e.inverse(p1), e.inverse(p2)
	b1, e1 := e.r.PredRange(p1Inv)
	b2, e2 := e.r.PredRange(p2)
	var failure error
	e.r.Ls.Intersect(b1, e1, b2, e2, func(z uint32, _, _, _, _ int) {
		if failure != nil {
			return
		}
		if err := e.Clock.Check(); err != nil {
			failure = err
			return
		}
		ob, oe := e.r.ObjectRange(z)
		srcB, srcE := e.r.BackwardByPred(ob, oe, p1)
		dstB, dstE := e.r.BackwardByPred(ob, oe, p2Inv)
		wavelet.RangeDistinct(e.r.Ls, srcB, srcE, func(s uint32, _, _ int) {
			if failure != nil {
				return
			}
			wavelet.RangeDistinct(e.r.Ls, dstB, dstE, func(o uint32, _, _ int) {
				if failure != nil {
					return
				}
				if e.pairs.add(s, o) && !e.emit(s, o) {
					failure = ErrLimit
				}
			})
		})
	})
	return failure
}

// inverse maps a completed predicate id to its inverse. The completed
// alphabet has an even size 2|P| with p̂ = p ± |P|.
func (e *Engine) inverse(p uint32) uint32 {
	half := e.r.NumPreds / 2
	if p < half {
		return p + half
	}
	return p - half
}
