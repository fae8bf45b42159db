package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
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
// The drivers run over the memo's rings, which share one id space: the
// single engine's ring, or every shard of the sharded engine. Each
// dequeued (node, states) item steps through every ring in turn against
// one visited map, so this is the plain §4 traversal of the union
// graph; it runs sequentially (there are no per-ring masks to keep
// coherent).

type wideState struct {
	eng     *glushkov.Wide
	visited map[uint32]glushkov.Mask
	queue   []uint32
	states  []glushkov.Mask
}

func (s *evalState) newWideState(expr pathexpr.Node) *wideState {
	c := s.memo.Get(expr, s.eager, s.noCompile)
	return &wideState{eng: s.memo.Wide(c), visited: make(map[uint32]glushkov.Mask)}
}

// wideStart is newWideState seeded at o with the final states.
func (s *evalState) wideStart(expr pathexpr.Node, o uint32) *wideState {
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

func (s *evalState) wideEvalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	if int(o) >= s.numNodes {
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
		return errLimit
	}
	return s.wideBFS(w, nil, emit)
}

func (s *evalState) wideRunToConst(expr pathexpr.Node, o uint32, emit EmitFunc) error {
	return s.wideBFS(s.wideStart(expr, o), nil, func(r uint32) bool { return emit(r, 0) })
}

func (s *evalState) wideEvalBothConst(expr pathexpr.Node, src, o uint32) error {
	if int(o) >= s.numNodes || int(src) >= s.numNodes {
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

func (s *evalState) wideFullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	w := s.newWideState(expr)
	base := w.eng.F.Clone()
	if base.Test(0) {
		base[0] &^= 1 // keep the initial state reportable
	}
	// Pre-visiting every node with base is impractical for multiword
	// masks; instead fold base into the step's dedup check.
	report := func(r uint32) bool { return emit(r, 0) }
	for _, r := range s.memo.rings {
		if r.N == 0 {
			continue
		}
		if err := s.wideStep(r, w, 0, r.N, w.eng.F, base, report); err != nil {
			return err
		}
	}
	return s.wideBFS(w, base, report)
}

func (s *evalState) wideBFS(w *wideState, base glushkov.Mask, emit func(uint32) bool) error {
	for head := 0; head < len(w.queue); head++ {
		node, d := w.queue[head], w.states[head]
		for _, r := range s.memo.rings {
			b, end := r.ObjectRange(node)
			if b == end {
				continue
			}
			if err := s.wideStep(r, w, b, end, d, base, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// wideStep is the multiword analogue of the §4 step over one ring:
// part 1 enumerates all distinct predicates of the range (no B[v]
// pruning) and filters by B[p]; part 2 enumerates distinct subjects and
// dedups against the visited map.
func (s *evalState) wideStep(r *ring.Ring, w *wideState, b, end int, d, base glushkov.Mask, emit func(uint32) bool) error {
	if err := s.clock.Check(); err != nil {
		return err
	}
	d2 := w.eng.NewMask()
	var failure error
	wavelet.RangeDistinct(r.Lp, b, end, func(p uint32, rb, re int) {
		if failure != nil {
			return
		}
		s.stats.WaveletVisits++
		bp := w.eng.BFor(p)
		if bp == nil || !d.Intersects(bp) {
			return
		}
		s.stats.ProductEdges++
		w.eng.StepRevInto(d2, d, p)
		if !d2.Any() {
			return
		}
		lsB, lsE := r.Cp[p]+rb, r.Cp[p]+re
		wavelet.RangeDistinct(r.Ls, lsB, lsE, func(src uint32, _, _ int) {
			if failure != nil {
				return
			}
			s.stats.WaveletVisits++
			cand := d2.Clone()
			if base != nil {
				cand.AndNot(base)
			}
			fresh := w.enqueue(src, cand)
			if fresh == nil {
				return
			}
			s.stats.ProductNodes++
			if fresh.Test(0) && !emit(src) {
				failure = errLimit
			}
		})
	})
	return failure
}
