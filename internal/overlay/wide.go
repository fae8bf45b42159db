package overlay

import (
	"errors"

	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// This file is the union engine's fallback for expressions beyond the
// 64-state bit-parallel engine: a plain node-at-a-time backward BFS
// with multiword state masks and per-edge enumeration (no wavelet
// pruning). Such expressions are vanishingly rare in real logs, so the
// fallback optimises for correctness and simplicity, exactly like
// core's wide path.

// eachInEdge streams the union in-edges of object o as (p, s) pairs.
func (e *Engine) eachInEdge(o uint32, fn func(p, s uint32) bool) bool {
	return EachInEdge(e.rings, e.ov, o, fn)
}

// EachInEdge streams the union in-edges of object o as (p, s) pairs:
// every sub-ring's object range (tombstones dropped) followed by the
// overlay's adds. Return false to stop. Per-edge wavelet access — the
// generic enumeration behind the wide fallback and the pattern
// executor's union-mode edge scans.
func EachInEdge(rings []*ring.Ring, ov *Overlay, o uint32, fn func(p, s uint32) bool) bool {
	for _, r := range rings {
		if int(o) >= r.NumNodes {
			continue
		}
		b, end := r.ObjectRange(o)
		for i := b; i < end; i++ {
			p := r.Lp.Access(i)
			pos := r.Cp[p] + r.Lp.Rank(p, i)
			s := r.Ls.Access(pos)
			if ov.Deleted(Edge{S: s, P: p, O: o}) {
				continue
			}
			if !fn(p, s) {
				return false
			}
		}
	}
	return ov.InEdges(o, fn)
}

// wideRun drains a multiword BFS worklist. visited maps nodes to their
// accumulated state masks (base pre-folded in by the caller); reach is
// called for nodes newly reaching the initial state.
type wideRun struct {
	e       *Engine
	wd      *glushkov.Wide
	visited map[uint32]glushkov.Mask
	queue   []uint32
	pending map[uint32]glushkov.Mask // states enqueued but not expanded
	dst     glushkov.Mask
	reach   func(s uint32) bool
}

func (e *Engine) newWideRun(wd *glushkov.Wide, reach func(uint32) bool) *wideRun {
	return &wideRun{
		e:       e,
		wd:      wd,
		visited: map[uint32]glushkov.Mask{},
		pending: map[uint32]glushkov.Mask{},
		dst:     wd.NewMask(),
		reach:   reach,
	}
}

// seed marks node n visited with states d and enqueues its outgoing
// work (Init carries none).
func (r *wideRun) seed(n uint32, d glushkov.Mask) bool {
	v := r.visited[n]
	if v == nil {
		v = r.wd.NewMask()
		r.visited[n] = v
	}
	fresh := d.Clone()
	fresh.AndNot(v)
	if !fresh.Any() {
		return true
	}
	v.Or(d)
	if fresh.Test(0) {
		if !r.reach(n) {
			return false
		}
		fresh[0] &^= 1
	}
	if !fresh.Any() {
		return true
	}
	p := r.pending[n]
	if p == nil {
		r.pending[n] = fresh
		r.queue = append(r.queue, n)
	} else {
		p.Or(fresh)
	}
	return true
}

// seedStart marks the traversal's start node visited with the final
// states and enqueues its expansion, without treating the seed itself
// as having reached the initial state (parity with the narrow path's
// markNode + queue seeding).
func (r *wideRun) seedStart(n uint32) {
	r.visited[n] = r.wd.F.Clone()
	r.pending[n] = r.wd.F.Clone()
	r.queue = append(r.queue, n)
}

// drain expands the worklist to exhaustion.
func (r *wideRun) drain() error {
	for len(r.queue) > 0 {
		n := r.queue[0]
		r.queue = r.queue[1:]
		d := r.pending[n]
		delete(r.pending, n)
		if d == nil || !d.Any() {
			continue
		}
		if err := r.e.clock.Check(); err != nil {
			return err
		}
		stopped := false
		r.e.eachInEdge(n, func(p, s uint32) bool {
			r.wd.StepRevInto(r.dst, d, p)
			if !r.dst.Any() {
				return true
			}
			r.e.stats.ProductEdges++
			if !r.seed(s, r.dst) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return errLimit
		}
	}
	return nil
}

// wideEvalToConst mirrors evalToConst beyond 64 states.
func (e *Engine) wideEvalToConst(expr pathexpr.Node, o uint32, swap bool, emit core.EmitFunc) error {
	wd := e.memo.Wide(e.compile(expr))
	if int(o) >= e.numNodes {
		return nil
	}
	pair := func(s uint32) bool {
		if swap {
			return emit(o, s)
		}
		return emit(s, o)
	}
	if wd.A.Nullable {
		if !pair(o) {
			return errLimit
		}
	}
	run := e.newWideRun(wd, pair)
	run.seedStart(o)
	return run.drain()
}

// wideEvalBothConst mirrors evalBothConst beyond 64 states.
func (e *Engine) wideEvalBothConst(expr pathexpr.Node, s, o uint32, emit core.EmitFunc) error {
	wd := e.memo.Wide(e.compile(expr))
	if int(o) >= e.numNodes || int(s) >= e.numNodes {
		return nil
	}
	if wd.A.Nullable && s == o {
		emit(s, o)
		return nil
	}
	found := false
	run := e.newWideRun(wd, func(got uint32) bool {
		if got == s {
			found = true
			emit(s, o)
			return false
		}
		return true
	})
	run.seedStart(o)
	err := run.drain()
	if found && errors.Is(err, errLimit) {
		err = nil
	}
	return err
}

// wideEvalBothVar mirrors evalBothVar beyond 64 states: nullable
// self-pairs, a multi-seeded phase collecting sources, then one
// constrained traversal of the inverse expression per source.
func (e *Engine) wideEvalBothVar(expr pathexpr.Node, emit core.EmitFunc) error {
	wd := e.memo.Wide(e.compile(expr))
	nullable := wd.A.Nullable
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

	// Phase 1: seed every node with F &^ Init pre-visited and F queued,
	// collecting sources that reach the initial state.
	var starts []uint32
	run := e.newWideRun(wd, func(s uint32) bool {
		starts = append(starts, s)
		return true
	})
	base := wd.F.Clone()
	base[0] &^= 1
	for v := 0; v < e.numNodes; v++ {
		// Seed expansion work directly (not via seed: conceptually the
		// final states are active everywhere without any node having
		// "reached" the initial state yet).
		run.visited[uint32(v)] = base.Clone()
		run.pending[uint32(v)] = wd.F.Clone()
		run.queue = append(run.queue, uint32(v))
	}
	if err := run.drain(); err != nil {
		return err
	}

	// Phase 2: enumerate objects per source via the inverse expression.
	inv := pathexpr.InverseOf(expr)
	iwd := e.memo.Wide(e.compile(inv))
	for _, s := range starts {
		s := s
		run2 := e.newWideRun(iwd, func(o uint32) bool {
			if nullable && o == s {
				return true
			}
			return emit(s, o)
		})
		run2.seedStart(s)
		if err := run2.drain(); err != nil {
			return err
		}
	}
	return nil
}
