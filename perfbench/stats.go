package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 from fewer than 1000 samples rests on less than ten observations
// and is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples. It refuses when fewer than minTail samples lie beyond the
// quantile's rank.
func percentile[T ~int64 | ~uint32 | ~float64](sorted []T, q float64) (T, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.4g of %d samples: undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minTail {
		return 0, fmt.Errorf("percentile %.4g of %d samples: only %d beyond it, need %d", q, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// unitQuantiles is the median over independent units (stretches of a
// phase, or committees) of each unit's p50 and p99, in milliseconds.
// Units too small to support a p99 are skipped; at least half of them
// must qualify. A tail taken this way reads a typical stretch of the
// run: one stretch that caught a burst of stalls (a neighbour on the
// host, two losses in a row) moves it by one rank at most.
func unitQuantiles(units [][]uint32) (p50, p99 float64, used int, err error) {
	var m50, m99 []float64
	for _, u := range units {
		s := slices.Sorted(slices.Values(u))
		a, errA := percentile(s, 0.50)
		b, errB := percentile(s, 0.99)
		if errA != nil || errB != nil {
			continue
		}
		m50 = append(m50, float64(a)/1e6)
		m99 = append(m99, float64(b)/1e6)
	}
	if len(m99) == 0 || 2*len(m99) < len(units) {
		return 0, 0, len(m99), fmt.Errorf("only %d of %d units hold enough samples for a p99", len(m99), len(units))
	}
	return medianOf(m50), medianOf(m99), len(m99), nil
}

// minUnitSamples is the smallest unit splitUnits makes: enough for a p99
// with a dozen samples beyond it.
const minUnitSamples = 1200

// splitUnits cuts time-ordered samples into n contiguous units of equal
// size (the last takes the remainder), fewer when n units would hold
// under minUnitSamples each.
func splitUnits(samples []uint32, n int) [][]uint32 {
	n = max(1, min(n, len(samples)/minUnitSamples))
	size := len(samples) / n
	if size == 0 {
		return [][]uint32{samples}
	}
	units := make([][]uint32, 0, n)
	for i := 0; i < n; i++ {
		hi := (i + 1) * size
		if i == n-1 {
			hi = len(samples)
		}
		units = append(units, samples[i*size:hi])
	}
	return units
}

// medianOf returns the median of xs (mean of the middle pair for even
// counts); it does not modify xs.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianMs is the median of samples in milliseconds, 0 for none.
func medianMs(samples []uint32) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	return float64(s[len(s)/2]) / 1e6
}

// clampNs stores a nanosecond interval in a uint32 sample: negative
// intervals (impossible on the monotonic clock) read 0 and anything past
// ~4.29 s saturates.
func clampNs(d int64) uint32 {
	switch {
	case d < 0:
		return 0
	case d > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(d)
}

// perOp divides a counter by the operation count, 0 when nothing ran.
func perOp(v float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}
