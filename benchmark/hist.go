package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a concurrent log-linear histogram of non-negative int64 samples
// (nanoseconds here): 32 sub-buckets per octave, so a bucket is at most
// 1/32 of its lower bound wide. Every session and indication consumer
// records into one shared instance; a bucket is one atomic add.
type hist struct {
	buckets [histBuckets]atomic.Int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Values below 2*histSub are their own bucket; each of the remaining
	// 63-histSubBits-1 octaves adds histSub buckets.
	histBuckets = 2*histSub + (63-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	i -= 2 * histSub
	shift := i/histSub + 1
	return int64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) record(v int64) { h.buckets[histIndex(v)].Add(1) }

// add folds another histogram's samples into h.
func (h *hist) add(o *hist) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
}

func (h *hist) count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) at the rank an exact sort
// would index, q·(n-1), interpolated linearly inside its bucket so the
// result is not pinned to bucket bounds. 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}

// quantileOf reads the q-quantile from an ascending-sorted sample at the
// same rank convention as hist.quantile, interpolating between neighbours.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	i := int(rank)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*(rank-float64(i))
}

// quartiles returns the first quartile, median and third quartile of vs
// with the "exclusive" method Python's statistics.quantiles(vs, n=4) uses,
// which is what the driver's spread check computes.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}
