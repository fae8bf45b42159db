package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// The multiword fallback evaluates queries whose expressions have more
// than 63 positions, using glushkov.Wide masks. It keeps the same
// three-part backward traversal but tracks visited states in a hash map
// of multiword masks and skips the per-wavelet-node filtering (the masks
// no longer fit the flat uint64 arrays); the paper's general case pays
// the same O(m/w) factor. Such expressions are vanishingly rare in real
// logs — the Wikidata log's queries have fewer than 16 predicates (§5).
//
// The fallback is written once for every engine, over the Traversal's
// InEdges: Engine and ShardedEngine list a node's in-edges from every
// ring of the memo in turn (ringsInEdges), the overlay union engine
// from every ring minus its tombstones plus its adds. Each dequeued
// (node, states) item steps through all of them against one visited
// map, so this is the plain §4 traversal of the union graph; it runs
// sequentially (there are no per-ring masks to keep coherent).

type wideState struct {
	eng     *glushkov.Wide
	visited map[uint32]glushkov.Mask
	queue   []uint32
	states  []glushkov.Mask
}

func (s *EvalState) newWideState(expr pathexpr.Node) *wideState {
	c := s.memo.Get(expr, false)
	return &wideState{eng: s.memo.Wide(c), visited: make(map[uint32]glushkov.Mask)}
}

// wideStart is newWideState seeded at o with the final states.
func (s *EvalState) wideStart(expr pathexpr.Node, o uint32) *wideState {
	w := s.newWideState(expr)
	w.visited[o] = w.eng.F.Clone()
	w.queue = append(w.queue, o)
	w.states = append(w.states, w.eng.F.Clone())
	return w
}

// enqueue records that node was reached with states d, returning the
// still-unvisited subset (nil when nothing is new).
func (w *wideState) enqueue(node uint32, d glushkov.Mask) glushkov.Mask {
	seen, ok := w.visited[node]
	if !ok {
		seen = d.Clone()
		w.visited[node] = seen
		w.queue = append(w.queue, node)
		w.states = append(w.states, seen.Clone())
		return seen
	}
	fresh := d.Clone()
	fresh.AndNot(seen)
	if !fresh.Any() {
		return nil
	}
	seen.Or(fresh)
	w.queue = append(w.queue, node)
	w.states = append(w.states, fresh)
	return fresh
}

func (s *EvalState) wideEvalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	if int(o) >= s.NumNodes {
		return nil
	}
	emit := func(r uint32) bool {
		if swap {
			return s.emit(o, r)
		}
		return s.emit(r, o)
	}
	w := s.wideStart(expr, o)
	if w.eng.A.Nullable && !emit(o) {
		return ErrLimit
	}
	return s.wideBFS(w, nil, emit)
}

func (s *EvalState) wideRunToConst(expr pathexpr.Node, o uint32, emit EmitFunc) error {
	return s.wideBFS(s.wideStart(expr, o), nil, func(r uint32) bool { return emit(r, 0) })
}

func (s *EvalState) wideEvalBothConst(expr pathexpr.Node, src, o uint32) error {
	if int(o) >= s.NumNodes || int(src) >= s.NumNodes {
		return nil
	}
	w := s.wideStart(expr, o)
	if w.eng.A.Nullable && src == o {
		s.emit(src, o)
		return nil
	}
	return s.wideBFS(w, nil, func(r uint32) bool {
		if r == src {
			s.emit(src, o)
			return false
		}
		return true
	})
}

func (s *EvalState) wideFullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	w := s.newWideState(expr)
	base := w.eng.F.Clone()
	if base.Test(0) {
		base[0] &^= 1 // keep the initial state reportable
	}
	// Pre-visiting every node with base is impractical for multiword
	// masks; instead fold base into the step's dedup check.
	report := func(r uint32) bool { return emit(r, 0) }
	if err := s.wideStep(w, Variable, w.eng.F, base, report); err != nil {
		return err
	}
	return s.wideBFS(w, base, report)
}

func (s *EvalState) wideBFS(w *wideState, base glushkov.Mask, emit func(uint32) bool) error {
	for head := 0; head < len(w.queue); head++ {
		if err := s.wideStep(w, int64(w.queue[head]), w.states[head], base, emit); err != nil {
			return err
		}
	}
	return nil
}

// wideStep is the multiword analogue of the §4 step from object o (every
// object when o is Variable) with states d: each in-edge predicate is
// filtered by B[p] and stepped once, and its subjects are deduped
// against the visited map.
func (s *EvalState) wideStep(w *wideState, o int64, d, base glushkov.Mask, emit func(uint32) bool) error {
	if err := s.Clock.Check(); err != nil {
		return err
	}
	d2 := w.eng.NewMask()
	var failure error
	arrive := func(src uint32) bool {
		cand := d2.Clone()
		if base != nil {
			cand.AndNot(base)
		}
		fresh := w.enqueue(src, cand)
		if fresh == nil {
			return true
		}
		s.Stats.ProductNodes++
		if fresh.Test(0) && !emit(src) {
			failure = ErrLimit
		}
		return failure == nil
	}
	s.t.InEdges(o, func(p uint32) func(uint32) bool {
		bp := w.eng.BFor(p)
		if bp == nil || !d.Intersects(bp) {
			return nil
		}
		s.Stats.ProductEdges++
		w.eng.StepRevInto(d2, d, p)
		if !d2.Any() {
			return nil
		}
		return arrive
	})
	return failure
}

// ringsInEdges is InEdges over the memo's rings: per ring, the distinct
// predicates of o's L_p range (all of L_p when o is Variable), each
// offered to step before its distinct subjects are listed.
func (s *EvalState) ringsInEdges(o int64, step func(p uint32) func(s uint32) bool) {
	for _, r := range s.memo.rings {
		b, end := 0, r.N
		if o != Variable {
			b, end = r.ObjectRange(uint32(o))
		}
		more := true
		wavelet.RangeDistinct(r.Lp, b, end, func(p uint32, rb, re int) {
			if !more {
				return
			}
			s.Stats.WaveletVisits++
			each := step(p)
			if each == nil {
				return
			}
			wavelet.RangeDistinct(r.Ls, r.Cp[p]+rb, r.Cp[p]+re, func(src uint32, _, _ int) {
				if more {
					s.Stats.WaveletVisits++
					more = each(src)
				}
			})
		})
		if !more {
			return
		}
	}
}
