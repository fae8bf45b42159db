package overlay

import (
	"sort"

	"ringrpq/internal/core"
	"ringrpq/internal/wavelet"
)

// Tombstones and overlay adds in the union traversal. Each level runs
// two passes, sharing the global visited mask and the per-ring D[v]
// marks:
//
//   - per ring, core's §4 step over the level's L_p ranges. Tombstones
//     are handled exactly through the LeafMask hook: a part-2 leaf drops
//     the items whose occurrences of the subject are all tombstoned,
//     comparing the item's rank range with the leaf ranks of the
//     subject's tombstones — no fragmentation of the coalesced ranges
//     (a punched-out position would split them into thousands of
//     single-gap pieces), and no per-version work: a subject's
//     tombstones are found by one binary search and each one's rank is
//     computed once per ring;
//   - overlay: the object-sorted adds entering each level node.

// leafMaskFor builds the part-2 LeafMask hook for one ring: the OR of
// the item masks, minus items whose occurrences of the subject are all
// tombstoned. Nil when the overlay has no tombstones.
func (e *Engine) leafMaskFor(w *ringWork) func(s uint32, its []wavelet.RangeMask) uint64 {
	if e.ov.DelCount() == 0 {
		return nil
	}
	return func(s uint32, its []wavelet.RangeMask) uint64 {
		rs := e.delRanks(w, s)
		var all uint64
		for _, it := range its {
			lo := sort.SearchInts(rs, it.B)
			hi := sort.SearchInts(rs, it.E)
			if it.E-it.B > hi-lo {
				all |= it.Mask
			}
		}
		return all
	}
}

// delRanks lists, ascending, the leaf ranks of s's tombstoned
// out-edges in the ring's L_s: the triple (s, p, o) occupies exactly
// one position of its backward-search range, and its rank among the
// occurrences of s is Rank(s, lsB). Tombstones are completed, so those
// of s mirror the tombstones entering s, which the object-sorted dels
// list contiguously. The ranks depend on the static ring only, so each
// is computed once (-1: the triple lives in another ring).
func (e *Engine) delRanks(w *ringWork, s uint32) []int {
	rs := w.ranks[:0]
	dels := e.ov.dels
	half := e.numPreds / 2
	for i := sort.Search(len(dels), func(k int) bool { return dels[k].O >= s }); i < len(dels) && dels[i].O == s; i++ {
		p := dels[i].P + half
		if dels[i].P >= half {
			p = dels[i].P - half
		}
		t := Edge{S: s, P: p, O: dels[i].S}
		r0, ok := w.rankOf[t]
		if !ok {
			r0 = -1
			if r := w.R; int(t.O) < r.NumNodes {
				b, end := r.ObjectRange(t.O)
				lsB, lsE := r.BackwardByPred(b, end, t.P)
				if k := r.Ls.Rank(s, lsB); r.Ls.Rank(s, lsE) > k {
					r0 = k
				}
			}
			w.rankOf[t] = r0
		}
		if r0 >= 0 {
			rs = append(rs, r0)
		}
	}
	sort.Ints(rs)
	w.ranks = rs
	return rs
}

// overlayLevel NFA-steps each overlay add entering a level node. Both
// are sorted by object, so each node's adds are found by a binary
// search of the adds past the previous node's: O(|level| log |adds|)
// for small levels and large ones alike.
func (e *Engine) overlayLevel(level []core.Item) error {
	adds := e.ov.adds
	for _, it := range level {
		adds = adds[sort.Search(len(adds), func(k int) bool { return adds[k].O >= it.Node }):]
		for j := 0; j < len(adds) && adds[j].O == it.Node; j++ {
			if err := e.stepAdd(it.D, adds[j].P, adds[j].S); err != nil {
				return err
			}
		}
	}
	return nil
}
