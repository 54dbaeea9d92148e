package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; v is not modified.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure the regression bounds are sized against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 4 || m == 0 {
		return 0
	}
	return (percentile(v, 0.75) - percentile(v, 0.25)) / m
}

func seconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}
