// Package enginetest provides shared ground truth for the RPQ engines:
// a deliberately simple relational evaluator over the expression AST
// (independent of every automaton construction in this repo), plus the
// graphs used across engine test suites. Test-only.
package enginetest

import (
	"fmt"
	"math/rand"

	"ringrpq/internal/pathexpr"
	"ringrpq/internal/triples"
)

// Pair is a result (subject, object) pair.
type Pair struct {
	S, O uint32
}

// Metro builds the completed Santiago transport graph of Figs. 1 and 3
// with the short names used throughout the paper's examples. Metro lines
// are bidirectional (both directions are data edges); the three bus edges
// are directed, reconstructed from the object ranges of Fig. 3 (each of
// SA, UCh and BA has exactly four incoming edges there, which pins the
// bus edges to SA→UCh, BA→SA and BA→UCh).
func Metro() *triples.Graph {
	b := triples.NewBuilder()
	add := func(s, p, o string) { b.Add(s, p, o); b.Add(o, p, s) }
	add("Baq", "l1", "UCh")
	add("UCh", "l1", "LH")
	add("LH", "l2", "SA")
	add("SA", "l5", "BA")
	add("BA", "l5", "Baq")
	b.Add("SA", "bus", "UCh")
	b.Add("BA", "bus", "SA")
	b.Add("BA", "bus", "UCh")
	return b.Build()
}

// RandomGraph builds a small random completed graph: nv nodes, np base
// predicates, ne edge draws (duplicates collapse).
func RandomGraph(seed int64, nv, np, ne int) *triples.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := triples.NewBuilder()
	for i := 0; i < nv; i++ {
		b.Nodes().Intern(nodeName(i))
	}
	for i := 0; i < np; i++ {
		b.Preds().Intern(predName(i))
	}
	for i := 0; i < ne; i++ {
		b.AddIDs(uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv)))
	}
	return b.Build()
}

// RareIntoChain lists the edges of a graph where a rare predicate pa
// (three edges) meets both ends of a dense pb chain c000 → … → c(n-1):
// x0 and x1 point at its head, its tail points at y0. On pa/pb* and
// pb*/pa one end of the query selects three triples and the other
// n+2, so a v→v traversal that starts at the pb end walks the chain
// once per candidate.
func RareIntoChain(n int) [][3]string {
	chain := func(i int) string { return fmt.Sprintf("c%03d", i) }
	edges := [][3]string{{"x0", "pa", chain(0)}, {"x1", "pa", chain(0)}}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [3]string{chain(i), "pb", chain(i + 1)})
	}
	return append(edges, [3]string{chain(n - 1), "pa", "y0"})
}

func nodeName(i int) string { return "n" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }
func predName(i int) string { return "p" + string(rune('a'+i)) }

// RandomExpr builds a random path expression over the first np predicate
// names, with inverses.
func RandomExpr(rng *rand.Rand, np, depth int) pathexpr.Node {
	if depth == 0 || rng.Intn(3) == 0 {
		return pathexpr.Sym{Name: predName(rng.Intn(np)), Inverse: rng.Intn(4) == 0}
	}
	switch rng.Intn(5) {
	case 0:
		return pathexpr.Concat{L: RandomExpr(rng, np, depth-1), R: RandomExpr(rng, np, depth-1)}
	case 1:
		return pathexpr.Alt{L: RandomExpr(rng, np, depth-1), R: RandomExpr(rng, np, depth-1)}
	case 2:
		return pathexpr.Star{X: RandomExpr(rng, np, depth-1)}
	case 3:
		return pathexpr.Plus{X: RandomExpr(rng, np, depth-1)}
	default:
		return pathexpr.Opt{X: RandomExpr(rng, np, depth-1)}
	}
}

// Widen returns expr | z/z/…/z, with 64 occurrences of a predicate z
// that no test graph has. The language is expr's, but the automaton has
// more than 63 positions, so the engines evaluate it with the multiword
// fallback: the differential tests run every case widened to check that
// fallback against the oracle on all three engines.
func Widen(expr pathexpr.Node) pathexpr.Node {
	var absent pathexpr.Node = pathexpr.Sym{Name: "z"}
	for i := 1; i < 64; i++ {
		absent = pathexpr.Concat{L: absent, R: pathexpr.Sym{Name: "z"}}
	}
	return pathexpr.Alt{L: expr, R: absent}
}

// relation is a set of pairs.
type relation map[Pair]bool

// Oracle computes the full evaluation of the 2RPQ (subject, expr, object)
// over g by relational algebra on pair sets: atoms select edges, concat
// joins, alternation unions, and closures iterate to fixpoint. Endpoints
// are node ids or -1 for variables. Zero-length paths relate every node
// to itself, matching the engines' convention. Exponential in nothing but
// graph size; use small graphs.
func Oracle(g *triples.Graph, subject int64, expr pathexpr.Node, object int64) []Pair {
	rel := eval(g, expr)
	var out []Pair
	for p := range rel {
		if subject >= 0 && int64(p.S) != subject {
			continue
		}
		if object >= 0 && int64(p.O) != object {
			continue
		}
		out = append(out, p)
	}
	return out
}

func eval(g *triples.Graph, n pathexpr.Node) relation {
	switch x := n.(type) {
	case pathexpr.Sym:
		out := relation{}
		id, ok := g.PredID(x.Name, x.Inverse)
		if !ok {
			return out
		}
		for _, t := range g.Triples {
			if t.P == id {
				out[Pair{t.S, t.O}] = true
			}
		}
		return out
	case pathexpr.NegSet:
		out := relation{}
		for _, t := range g.Triples {
			inverse := t.P >= g.NumPreds
			if inverse != x.Inverse {
				continue
			}
			base := t.P
			if inverse {
				base -= g.NumPreds
			}
			if !x.Excludes(g.Preds.Name(base)) {
				out[Pair{t.S, t.O}] = true
			}
		}
		return out
	case pathexpr.Eps:
		return identity(g)
	case pathexpr.Concat:
		return join(eval(g, x.L), eval(g, x.R))
	case pathexpr.Alt:
		l := eval(g, x.L)
		for p := range eval(g, x.R) {
			l[p] = true
		}
		return l
	case pathexpr.Star:
		return closure(g, eval(g, x.X), true)
	case pathexpr.Plus:
		return closure(g, eval(g, x.X), false)
	case pathexpr.Opt:
		out := eval(g, x.X)
		for p := range identity(g) {
			out[p] = true
		}
		return out
	default:
		panic("enginetest: unknown node")
	}
}

func identity(g *triples.Graph) relation {
	out := relation{}
	for v := 0; v < g.NumNodes(); v++ {
		out[Pair{uint32(v), uint32(v)}] = true
	}
	return out
}

func join(a, b relation) relation {
	byS := map[uint32][]uint32{}
	for p := range b {
		byS[p.S] = append(byS[p.S], p.O)
	}
	out := relation{}
	for p := range a {
		for _, o := range byS[p.O] {
			out[Pair{p.S, o}] = true
		}
	}
	return out
}

// closure computes the transitive closure of r (reflexive over all nodes
// when reflexive is set) by naive iteration to fixpoint.
func closure(g *triples.Graph, r relation, reflexive bool) relation {
	out := relation{}
	for p := range r {
		out[p] = true
	}
	for {
		next := join(out, r)
		grew := false
		for p := range next {
			if !out[p] {
				out[p] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	if reflexive {
		for p := range identity(g) {
			out[p] = true
		}
	}
	return out
}

// SortPairs orders pairs for stable comparison.
func SortPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessPair(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func lessPair(a, b Pair) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	return a.O < b.O
}
