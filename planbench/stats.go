package main

import (
	"math"
	"sort"
)

// quantile is the linear-interpolation quantile (numpy's default, R type 7)
// of v at q in [0, 1].
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// beyond counts the samples strictly above x.
func beyond(v []float64, x float64) int {
	n := 0
	for _, s := range v {
		if s > x {
			n++
		}
	}
	return n
}
