package bitvec

import (
	"bytes"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ringrpq/internal/serial"
)

// naive is a reference implementation over a bool slice.
type naive []bool

func (nv naive) rank1(i int) int {
	r := 0
	for j := 0; j < i && j < len(nv); j++ {
		if nv[j] {
			r++
		}
	}
	return r
}

func (nv naive) select1(k int) int {
	for i, b := range nv {
		if b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func (nv naive) select0(k int) int {
	for i, b := range nv {
		if !b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func randomBits(n int, p float64, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = rng.Float64() < p
	}
	return bs
}

func TestEmpty(t *testing.T) {
	v := FromBools(nil)
	if v.Len() != 0 || v.Ones() != 0 || v.Zeros() != 0 {
		t.Fatalf("empty vector: len=%d ones=%d zeros=%d", v.Len(), v.Ones(), v.Zeros())
	}
	if got := v.Rank1(0); got != 0 {
		t.Errorf("Rank1(0)=%d, want 0", got)
	}
	if got := v.Select1(1); got != -1 {
		t.Errorf("Select1(1)=%d, want -1", got)
	}
	if got := v.Select0(1); got != -1 {
		t.Errorf("Select0(1)=%d, want -1", got)
	}
}

func TestSingleBits(t *testing.T) {
	v1 := FromBools([]bool{true})
	if v1.Rank1(1) != 1 || v1.Select1(1) != 0 || v1.Get(0) != true {
		t.Errorf("one-bit vector misbehaves")
	}
	v0 := FromBools([]bool{false})
	if v0.Rank1(1) != 0 || v0.Select0(1) != 0 || v0.Get(0) != false {
		t.Errorf("zero-bit vector misbehaves")
	}
}

func TestGetMatchesInput(t *testing.T) {
	bs := randomBits(3000, 0.3, 1)
	v := FromBools(bs)
	for i, want := range bs {
		if v.Get(i) != want {
			t.Fatalf("Get(%d)=%v, want %v", i, v.Get(i), want)
		}
	}
}

// directoryLengths straddle every boundary the rank directory knows:
// the 64-bit word, the 128-, 256- and 384-bit sub-block counts and the
// 512-bit superblock.
var directoryLengths = []int{63, 64, 65, 127, 128, 129, 255, 256, 257, 383, 384, 385, 511, 512, 513, 1023, 1024, 1025}

type bitsInput struct {
	n int
	p float64
}

// directoryInputs returns n bits at each density of ps, then every
// directoryLengths length at densities 0, ⅓ and 1.
func directoryInputs(n int, ps ...float64) []bitsInput {
	var inputs []bitsInput
	for _, p := range ps {
		inputs = append(inputs, bitsInput{n, p})
	}
	for _, n := range directoryLengths {
		for _, p := range []float64{0, 1.0 / 3, 1} {
			inputs = append(inputs, bitsInput{n, p})
		}
	}
	return inputs
}

func TestRankAgainstNaive(t *testing.T) {
	for _, in := range directoryInputs(4097, 0.0, 0.01, 0.5, 0.99, 1.0) {
		bs := randomBits(in.n, in.p, int64(in.p*100)+7)
		v := FromBools(bs)
		nv := naive(bs)
		for i := 0; i <= len(bs); i++ {
			if got, want := v.Rank1(i), nv.rank1(i); got != want {
				t.Fatalf("n=%d p=%v Rank1(%d)=%d, want %d", in.n, in.p, i, got, want)
			}
			if got, want := v.Rank0(i), i-nv.rank1(i); got != want {
				t.Fatalf("n=%d p=%v Rank0(%d)=%d, want %d", in.n, in.p, i, got, want)
			}
		}
	}
}

func TestSelectAgainstNaive(t *testing.T) {
	for _, in := range directoryInputs(5000, 0.01, 0.5, 0.99) {
		bs := randomBits(in.n, in.p, int64(in.p*1000)+13)
		v := FromBools(bs)
		nv := naive(bs)
		for k := 1; k <= v.Ones(); k++ {
			if got, want := v.Select1(k), nv.select1(k); got != want {
				t.Fatalf("n=%d p=%v Select1(%d)=%d, want %d", in.n, in.p, k, got, want)
			}
		}
		for k := 1; k <= v.Zeros(); k++ {
			if got, want := v.Select0(k), nv.select0(k); got != want {
				t.Fatalf("n=%d p=%v Select0(%d)=%d, want %d", in.n, in.p, k, got, want)
			}
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	v := FromBools(randomBits(100, 0.5, 3))
	if v.Select1(0) != -1 || v.Select1(v.Ones()+1) != -1 {
		t.Error("Select1 out-of-range should be -1")
	}
	if v.Select0(0) != -1 || v.Select0(v.Zeros()+1) != -1 {
		t.Error("Select0 out-of-range should be -1")
	}
}

// Rank and Select are inverse: Rank1(Select1(k)) == k-1 and the bit is set.
func TestRankSelectInverse(t *testing.T) {
	f := func(seed int64, raw uint16) bool {
		n := int(raw)%2000 + 1
		bs := randomBits(n, 0.4, seed)
		v := FromBools(bs)
		for k := 1; k <= v.Ones(); k += 7 {
			pos := v.Select1(k)
			if pos < 0 || !v.Get(pos) || v.Rank1(pos) != k-1 {
				return false
			}
		}
		for k := 1; k <= v.Zeros(); k += 7 {
			pos := v.Select0(k)
			if pos < 0 || v.Get(pos) || v.Rank0(pos) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Rank is monotone and increments exactly on set bits.
func TestRankMonotone(t *testing.T) {
	f := func(seed int64) bool {
		bs := randomBits(1500, 0.5, seed)
		v := FromBools(bs)
		for i := 0; i < v.Len(); i++ {
			d := v.Rank1(i+1) - v.Rank1(i)
			if (d != 1) == v.Get(i) { // d must be 1 iff bit set
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuilderSet(t *testing.T) {
	b := NewBuilder(10)
	b.AppendN(false, 10)
	b.Set(3)
	b.Set(9)
	v := b.Build()
	if !v.Get(3) || !v.Get(9) || v.Ones() != 2 {
		t.Errorf("builder Set failed: ones=%d", v.Ones())
	}
}

func TestBuilderSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range should panic")
		}
	}()
	b := NewBuilder(4)
	b.Append(false)
	b.Set(1)
}

func TestLargeDense(t *testing.T) {
	// Cross several superblocks and select samples.
	n := superBits*5 + 17
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = i%3 == 0
	}
	v := FromBools(bs)
	nv := naive(bs)
	for i := 0; i <= n; i += 97 {
		if v.Rank1(i) != nv.rank1(i) {
			t.Fatalf("Rank1(%d) mismatch", i)
		}
	}
	for k := 1; k <= v.Ones(); k += 43 {
		if v.Select1(k) != nv.select1(k) {
			t.Fatalf("Select1(%d) mismatch", k)
		}
	}
	for k := 1; k <= v.Zeros(); k += 43 {
		if v.Select0(k) != nv.select0(k) {
			t.Fatalf("Select0(%d) mismatch", k)
		}
	}
}

// All-ones vectors fill the sub-block counts to their largest values
// (384 in the last field).
func TestAllOnesAllZeros(t *testing.T) {
	for _, n := range append(directoryLengths, 4097) {
		ones := make([]bool, n)
		for i := range ones {
			ones[i] = true
		}
		v := FromBools(ones)
		for i := 0; i <= n; i++ {
			if v.Rank1(i) != i || v.Rank0(i) != 0 {
				t.Fatalf("n=%d all-ones Rank1(%d)=%d Rank0=%d", n, i, v.Rank1(i), v.Rank0(i))
			}
		}
		for k := 1; k <= n; k++ {
			if v.Select1(k) != k-1 {
				t.Fatalf("n=%d all-ones Select1(%d)=%d", n, k, v.Select1(k))
			}
		}
		v = FromBools(make([]bool, n))
		for i := 0; i <= n; i++ {
			if v.Rank1(i) != 0 || v.Rank0(i) != i {
				t.Fatalf("n=%d all-zeros Rank1(%d)=%d Rank0=%d", n, i, v.Rank1(i), v.Rank0(i))
			}
		}
		for k := 1; k <= n; k++ {
			if v.Select0(k) != k-1 {
				t.Fatalf("n=%d all-zeros Select0(%d)=%d", n, k, v.Select0(k))
			}
		}
	}
}

// The directory counts the ones before a superblock in 36 bits, so
// building a vector of 2^36 bits or more must fail loudly.
func TestBuildRankRejectsTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("buildRank of 2^36 bits should panic")
		}
	}()
	v := &Vector{n: 1 << beforeBits}
	v.buildRank()
}

// Decode must report a bit count over the directory's limit as an
// error, not reach buildRank's panic.
func TestDecodeRejectsTooLong(t *testing.T) {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Magic("bv01")
	w.Int(1 << beforeBits)
	w.Uint64s(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := serial.NewReader(&buf)
	if v := Decode(r); v != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "fewer than 2^36") {
		t.Fatalf("Decode of 2^36 bits = %v, err %v; want nil and the limit error", v, r.Err())
	}
}

func TestSizeBytesPositive(t *testing.T) {
	v := FromBools(randomBits(10000, 0.5, 11))
	if v.SizeBytes() < 10000/8 {
		t.Errorf("SizeBytes=%d implausibly small", v.SizeBytes())
	}
}

func BenchmarkRank1(b *testing.B) {
	v := FromBools(randomBits(1<<20, 0.5, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(i % v.Len())
	}
}

var sinkRank int

// BenchmarkRank1Random ranks random positions of an 8 MiB vector, more
// than the L2 cache holds, so each rank pays for its cache lines as the
// ranks of a large wavelet matrix do.
func BenchmarkRank1Random(b *testing.B) {
	const n = 1 << 26
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, n/64)
	for i := range words {
		words[i] = rng.Uint64()
	}
	v := (&Builder{words: words, n: n}).Build()
	pos := make([]int, 1<<16)
	for i := range pos {
		pos[i] = rng.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRank = v.Rank1(pos[i%len(pos)])
	}
}

func BenchmarkSelect1(b *testing.B) {
	v := FromBools(randomBits(1<<20, 0.5, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(i%v.Ones() + 1)
	}
}

// selectInWordLoop is the original O(k) clear-lowest-bit implementation,
// kept as the reference for the branchless broadword version.
func selectInWordLoop(w uint64, k int) int {
	for i := 0; i < k-1; i++ {
		w &= w - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(w)
}

// The broadword selectInWord must agree with the loop version on every
// valid (word, rank) input shape: random words, sparse and dense words,
// single bits at every position, and all-ones.
func TestSelectInWordMatchesLoop(t *testing.T) {
	check := func(w uint64) {
		t.Helper()
		n := bits.OnesCount64(w)
		for k := 1; k <= n; k++ {
			if got, want := selectInWord(w, k), selectInWordLoop(w, k); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, k, got, want)
			}
		}
	}
	for i := 0; i < 64; i++ {
		check(1 << uint(i))          // single bit
		check(^uint64(0) >> uint(i)) // dense suffix
		check(^uint64(0) << uint(i)) // dense prefix
	}
	check(^uint64(0))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		w := rng.Uint64()
		switch i % 3 {
		case 1:
			w &= rng.Uint64() & rng.Uint64() // sparse
		case 2:
			w |= rng.Uint64() | rng.Uint64() // dense
		}
		if w != 0 {
			check(w)
		}
	}
}

var sinkSelect int

func BenchmarkSelectInWord(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	words := make([]uint64, 1024)
	ranks := make([]int, 1024)
	for i := range words {
		for words[i] == 0 {
			words[i] = rng.Uint64()
		}
		ranks[i] = 1 + rng.Intn(bits.OnesCount64(words[i]))
	}
	b.Run("broadword", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(words)
			sinkSelect = selectInWord(words[j], ranks[j])
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(words)
			sinkSelect = selectInWordLoop(words[j], ranks[j])
		}
	})
}
