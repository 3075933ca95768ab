package main

import (
	"math"
	"math/bits"
	"sort"
)

// minTailSamples is how many samples must lie strictly above a tail
// percentile before it is reported, and minTailN the sample count below
// which only the median is reported: under forty samples even p90 has
// fewer than four points beyond it, so it is no tail.
const (
	minTailSamples = 10
	minTailN       = 40
)

// hist is a fixed-memory latency histogram: values below 1024 ns are
// exact, larger ones keep their top 11 bits, so a bucket is at most
// 1/1024 of its value wide. Fixed memory keeps the benchmark's own
// footprint from growing with the number of ops a run completes.
type hist struct {
	counts [(histExp + 1) << histBits]uint32
	n      int
}

const (
	histBits = 10
	histExp  = 53 // enough exponents for any non-negative int64
)

func newHist() *hist { return new(hist) }

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<histBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histBits - 1
	return (e+1)<<histBits + int(v>>uint(e)) - 1<<histBits
}

// valueOf is the midpoint of bucket b.
func valueOf(b int) float64 {
	if b < 1<<histBits {
		return float64(b)
	}
	e := b>>histBits - 1
	lo := int64(b&(1<<histBits-1)+1<<histBits) << uint(e)
	return float64(lo) + float64(int64(1)<<uint(e)-1)/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// rankBucket is the bucket of the nearest-rank q-quantile.
func (h *hist) rankBucket(q float64) int {
	r := int(math.Ceil(q * float64(h.n)))
	if r < 1 {
		r = 1
	}
	seen := 0
	for b, c := range h.counts {
		seen += int(c)
		if seen >= r {
			return b
		}
	}
	return len(h.counts) - 1
}

// latencySummary is the median and, when the percentile rule allows,
// the p90 of one set of samples.
type latencySummary struct {
	N      int
	P50    float64
	P90    float64
	HasP90 bool
}

// summary applies the percentile rule: p90 is reported only from at
// least minTailN samples of which at least minTailSamples lie in
// buckets strictly above p90's.
func (h *hist) summary() latencySummary {
	s := latencySummary{N: h.n}
	if h.n == 0 {
		return s
	}
	s.P50 = valueOf(h.rankBucket(0.5))
	if h.n >= minTailN {
		b := h.rankBucket(0.9)
		above := 0
		for _, c := range h.counts[b+1:] {
			above += int(c)
		}
		if above >= minTailSamples {
			s.P90, s.HasP90 = valueOf(b), true
		}
	}
	return s
}

// histOf collects samples into a new histogram.
func histOf(samples []int64) *hist {
	h := newHist()
	for _, v := range samples {
		h.add(v)
	}
	return h
}

// median is the median of values (the mean of the middle two for an
// even count); values is sorted in place.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles returns the three cut points of sorted data by the
// "exclusive" method of Python's statistics.quantiles(data, n=4), the
// rule the steadiness check shares with the benchmark's acceptance.
func quartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q
}
