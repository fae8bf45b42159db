package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// maxCompiled bounds a compilation memo; on overflow the whole memo is
// dropped (rebuilding a handful of automata is cheaper than tracking
// recency).
const maxCompiled = 128

// compileThreshold is the use count past which an expression is
// compiled into a specialized stepper. The service's canonicalizing
// expr cache aligns the memo keys, so per-worker use counts mirror the
// service-level hit counters.
const compileThreshold = 2

// Compiled is one memoised Glushkov compilation. Eng is nil when the
// expression exceeds the 64-state bit-parallel engine and the multiword
// fallback must be used. St and BArrs are the compilation tier: they
// stay nil until the expression's use count crosses compileThreshold
// (or an eager evaluation forces them), after which every evaluation
// runs the specialized stepper against the precomputed B[v] array of
// each ring with zero per-evaluation setup.
type Compiled struct {
	A     *glushkov.Automaton
	Eng   *glushkov.Engine
	St    glushkov.Stepper
	BArrs [][]uint64
	uses  int
	wide  *glushkov.Wide
}

// Stepper is the automaton stepper of c: the compiled specialization
// when the expression is hot, else the interpreting engine.
func (c *Compiled) Stepper() glushkov.Stepper {
	if c.St != nil {
		return c.St
	}
	return c.Eng
}

// Memo memoises Glushkov compilations for one engine over a fixed list
// of rings, keyed by the canonical expression string, so structurally
// equal expressions share one entry regardless of how their ASTs were
// obtained. It is per engine by design: each worker clone pays its own
// cold build, in exchange for lock-free access on the evaluation hot
// path. The key is rendered through a reused buffer, keeping the
// steady-state lookup (and the use-count bump) allocation-free.
type Memo struct {
	ids      glushkov.SymbolIDs
	numPreds uint32
	rings    []*ring.Ring
	m        map[string]*Compiled
	keyW     pathexpr.KeyWriter
}

// NewMemo builds an empty memo; numPreds is the completed alphabet
// size and rings the rings B[v] arrays are built over.
func NewMemo(ids glushkov.SymbolIDs, numPreds uint32, rings []*ring.Ring) *Memo {
	return &Memo{ids: ids, numPreds: numPreds, rings: rings}
}

// Get returns the memoised compilation of expr and counts one use.
// eager compiles the stepper tier on first use.
func (m *Memo) Get(expr pathexpr.Node, eager bool) *Compiled {
	kb := m.keyW.Key(expr)
	c, ok := m.m[string(kb)] // no-copy lookup
	if !ok {
		a := glushkov.Build(expr, m.ids)
		eng, err := glushkov.NewEngineFor(a, m.numPreds)
		if err != nil {
			eng = nil // fall back to the multiword path
		}
		c = &Compiled{A: a, Eng: eng}
		if m.m == nil || len(m.m) >= maxCompiled {
			m.m = make(map[string]*Compiled, 16)
		}
		m.m[string(kb)] = c
	}
	c.uses++
	if c.Eng != nil && c.St == nil && (eager || c.uses > compileThreshold) {
		c.St = glushkov.Compile(c.Eng, m.numPreds)
		c.BArrs = make([][]uint64, len(m.rings))
		for i, r := range m.rings {
			arr := make([]uint64, r.Lp.NumNodes())
			seedB(r.Lp, c.Eng, func(id wavelet.NodeID, mask uint64) { arr[id] |= mask })
			c.BArrs[i] = arr
		}
	}
	return c
}

// Wide returns the multiword engine of c, built on first use.
func (m *Memo) Wide(c *Compiled) *glushkov.Wide {
	if c.wide == nil {
		c.wide = glushkov.NewWideFor(c.A, m.numPreds)
	}
	return c.wide
}

// seedB ORs every symbol's B[c] mask into the L_p nodes on the path
// from its leaf to the root (§4.1: the aggregated B[v]).
func seedB(lp wavelet.Seq, eng *glushkov.Engine, or func(id wavelet.NodeID, mask uint64)) {
	for c, mask := range eng.B {
		for id := lp.LeafID(c); id >= 1; id = id.Parent() {
			or(id, mask)
		}
	}
}
