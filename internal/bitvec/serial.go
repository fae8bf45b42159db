package bitvec

import (
	"fmt"

	"ringrpq/internal/serial"
)

// Encode writes the vector's bits; the rank/select directories are
// rebuilt on load.
func (v *Vector) Encode(w *serial.Writer) {
	w.Magic("bv01")
	w.Int(v.n)
	w.Uint64s(v.words)
}

// Decode reads a vector written by Encode. The claimed bit count must
// be below the directory's 2^36-bit limit and consistent with the
// stored words (with zeroed padding bits), so the rank/select
// directories — whose sizes derive from it — stay bounded by the input
// actually read.
func Decode(r *serial.Reader) *Vector {
	r.Magic("bv01")
	n := r.Int()
	if n >= 1<<beforeBits {
		r.Fail(fmt.Errorf("bitvec: %d bits, the rank directory holds fewer than 2^%d", n, beforeBits))
	}
	words := r.Uint64s()
	if r.Err() != nil {
		return nil
	}
	if len(words) != (n+63)/64 {
		r.Fail(fmt.Errorf("bitvec: %d words for %d bits", len(words), n))
		return nil
	}
	if n%64 != 0 && len(words) > 0 && words[len(words)-1]>>(uint(n%64)) != 0 {
		r.Fail(fmt.Errorf("bitvec: nonzero padding bits beyond length %d", n))
		return nil
	}
	v := &Vector{words: words, n: n}
	v.buildRank()
	v.buildSelect()
	return v
}
