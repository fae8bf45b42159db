package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the Harrell–Davis estimate of the q-quantile of
// sorted values: a weighted mean of all order statistics with Beta
// weights centred on rank q·n. Unlike the nearest-rank quantile it does
// not jump when two neighbouring samples swap order under timing noise,
// which matters on a small log (41 v-to-v queries) whose latencies are
// sparse around the median. On thousands of samples it equals the
// sample quantile to within a few neighbours.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range sorted {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-13, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 100000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile of tailLevels that has at least
// ten samples beyond it, with its value.
func tail(sorted []float64) (q, v float64) {
	n := len(sorted)
	for _, q := range tailLevels {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 {
			return q, quantile(sorted, q)
		}
	}
	return 1, quantile(sorted, 1)
}

// latencies summarises per-operation latencies in milliseconds.
type latencies struct {
	xs []float64
}

func (l *latencies) add(d time.Duration) { l.xs = append(l.xs, ms(d)) }

// report adds the median and the tail under the names p50 and tailName
// to the chosen metric set, plus <prefix>_tail_pct and <prefix>_n (the
// tail's percentile and the sample count) as extras.
func (l *latencies) report(p *report, prefix, p50, tailName string, add func(string, float64, string)) {
	s := append([]float64(nil), l.xs...)
	sort.Float64s(s)
	q, v := tail(s)
	add(p50, quantile(s, 0.5), "ms")
	add(tailName, v, "ms")
	p.addExtra(prefix+"_tail_pct", 100*q, "percentile")
	p.addExtra(prefix+"_n", float64(len(s)), "count")
	fmt.Printf("%s: n=%d p50=%.3fms tail=p%g %.3fms\n", prefix, len(s), quantile(s, 0.5), 100*q, v)
}

// fingerprint is an order-independent digest of a set of pairs or rows:
// the count plus the sum and xor of a mixed hash of each element. Equal
// sets give equal fingerprints whatever order they are emitted in.
type fingerprint struct {
	n        int
	sum, xor uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (f *fingerprint) addPair(s, o uint32) {
	h := mix64(uint64(s)<<32 | uint64(o))
	f.n++
	f.sum += h
	f.xor ^= h
}

// addString adds one element given as text (a row or a solution).
func (f *fingerprint) addString(s string) {
	// FNV-1a, then mixed, so similar strings spread.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h = mix64(h)
	f.n++
	f.sum += h
	f.xor ^= h
}
