package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram records a distribution of latencies (in cycles) using fixed-width
// bins up to a cap, with an overflow bin for larger samples. Percentiles are
// exact to bin width; the overflow bin tracks its own min, max and mean so
// tail quantiles stay distinct and monotonic under saturation instead of
// collapsing to a single estimate.
type Histogram struct {
	binWidth     uint64
	bins         []uint64
	count        uint64
	sum          uint64
	max          uint64
	min          uint64
	overflow     uint64
	overflowSum  uint64
	overflowMin  uint64
	overflowBase uint64
}

// NewHistogram creates a histogram with the given bin width (cycles per bin)
// and number of bins. Samples at or beyond binWidth*numBins land in the
// overflow bin.
func NewHistogram(binWidth uint64, numBins int) *Histogram {
	if binWidth == 0 {
		binWidth = 1
	}
	if numBins < 1 {
		numBins = 1
	}
	return &Histogram{
		binWidth:     binWidth,
		bins:         make([]uint64, numBins),
		min:          math.MaxUint64,
		overflowMin:  math.MaxUint64,
		overflowBase: binWidth * uint64(numBins),
	}
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
	idx := v / h.binWidth
	if idx >= uint64(len(h.bins)) {
		h.overflow++
		h.overflowSum += v
		if v < h.overflowMin {
			h.overflowMin = v
		}
		return
	}
	h.bins[idx]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of recorded samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest recorded sample, or 0 with no samples.
func (h *Histogram) Max() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest recorded sample, or 0 with no samples.
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Percentile returns the value at quantile q in [0,1], estimated at the upper
// edge of the containing bin (clamped to the recorded max, so estimates are
// monotone in q up to and including q=1). Quantiles landing in the overflow bin are
// interpolated between the overflow min and max (anchored at the overflow
// mean), so p99, p99.9 and p99.99 stay distinct and monotonic even when the
// tail saturates the binned range.
func (h *Histogram) Percentile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			// Upper edge of the containing bin, clamped to the recorded
			// max: when the top occupied bin is partially filled its edge
			// can exceed every sample, which would put q<1 estimates above
			// Percentile(1) = max.
			v := (uint64(i) + 1) * h.binWidth
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	if h.overflow > 0 {
		// Rank within the overflow region, as a fraction in (0,1].
		return h.overflowQuantile(float64(target-cum) / float64(h.overflow))
	}
	return h.max
}

// overflowQuantile estimates the value at fraction p in (0,1] of the overflow
// mass. The overflow bin tracks only min, max and mean, so the distribution
// is modelled as two uniform pieces joined at the mean, with the piece masses
// chosen so the model's mean equals the tracked mean: mass f = (max-mean) /
// (max-min) on [min,mean] and 1-f on [mean,max]. The estimate is monotone in
// p, spans [min,max], and skews toward max exactly when the tail is heavy.
func (h *Histogram) overflowQuantile(p float64) uint64 {
	lo, hi := h.overflowMin, h.max
	if hi <= lo {
		return lo
	}
	mean := float64(h.overflowSum) / float64(h.overflow)
	f := (float64(hi) - mean) / float64(hi-lo)
	switch {
	case f >= 1: // mean == min: all mass at the low edge
		return lo
	case p <= f && f > 0:
		return lo + uint64(math.Round((mean-float64(lo))*(p/f)))
	default: // f in [0,1), p > f
		return uint64(math.Round(mean + (float64(hi)-mean)*(p-f)/(1-f)))
	}
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.count, h.sum, h.max, h.overflow, h.overflowSum = 0, 0, 0, 0, 0
	h.min = math.MaxUint64
	h.overflowMin = math.MaxUint64
}

// CDFPoint is one (latency, cumulative fraction) sample of a distribution.
type CDFPoint struct {
	Value    uint64
	Fraction float64
}

// CDF returns the cumulative distribution as (bin upper edge, fraction)
// points, including only non-empty bins. Overflow mass contributes two
// points: the crossing into the overflow region at its base and the
// terminating max, so the tail renders as a span rather than a fake
// vertical cliff at the maximum.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.bins {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{
			Value:    (uint64(i) + 1) * h.binWidth,
			Fraction: float64(cum) / float64(h.count),
		})
	}
	if h.overflow > 0 {
		if base := h.overflowBase; len(pts) == 0 || pts[len(pts)-1].Value < base {
			pts = append(pts, CDFPoint{
				Value:    base,
				Fraction: float64(cum) / float64(h.count),
			})
		}
		pts = append(pts, CDFPoint{Value: h.max, Fraction: 1.0})
	}
	return pts
}

// String summarizes the distribution for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.count, h.Mean(), h.Percentile(0.50), h.Percentile(0.99), h.Max())
}

// ExactPercentile computes quantile q over a raw sample slice (exact, used in
// tests to validate Histogram accuracy). The input is not modified.
func ExactPercentile(samples []uint64, q float64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]uint64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
