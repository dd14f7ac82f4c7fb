package gen

import (
	"math"
	"sort"
)

// Quantile is the linearly interpolated q-quantile of v, NaN when v is
// empty.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(v, 0.5).
func Median(v []float64) float64 { return Quantile(v, 0.5) }
