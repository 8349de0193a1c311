package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// bucketsPerDecade controls histogram resolution. Bucket boundaries grow by
// a factor of 10^(1/48) ≈ 1.0491 per bucket, so a histogram-derived quantile
// overshoots the true order statistic by at most ~4.9% (see Quantile).
const bucketsPerDecade = 48

// minTracked is the smallest latency resolved exactly (1 microsecond).
const minTracked = time.Microsecond

// exactSamples is how many samples a Summary retains verbatim. While the
// sample count is at or below this limit, Quantile returns exact nearest-rank
// order statistics — short benchmark runs report exact p50/p99. Past the
// limit the retained samples are discarded and quantiles fall back to the
// log-bucket histogram estimate.
const exactSamples = 1024

// Summary accumulates duration samples: count, sum, extremes, and quantiles
// that are exact up to exactSamples samples and log-bucket estimates past
// it. It is the latency distribution every experiment, command and bench
// entry reports; unlike a Histogram it is not a registry series.
type Summary struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
	buckets  map[int]int64
	// samples holds every sample verbatim while count <= exactSamples;
	// nil once the summary has spilled to histogram-only accounting.
	samples []time.Duration
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{buckets: make(map[int]int64)}
}

// Add records one sample.
func (s *Summary) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
	s.count++
	s.sum += d
	s.buckets[bucketOf(d)]++
	if s.count <= exactSamples {
		s.samples = append(s.samples, d)
	} else {
		s.samples = nil
	}
}

func bucketOf(d time.Duration) int {
	if d < minTracked {
		return 0
	}
	return 1 + int(math.Log10(float64(d)/float64(minTracked))*bucketsPerDecade)
}

// bucketUpper returns the upper bound of a bucket.
func bucketUpper(b int) time.Duration {
	if b == 0 {
		return minTracked
	}
	return time.Duration(float64(minTracked) * math.Pow(10, float64(b)/bucketsPerDecade))
}

// Count returns the number of samples.
func (s *Summary) Count() int64 { return s.count }

// Sum returns the total of all samples.
func (s *Summary) Sum() time.Duration { return s.sum }

// Mean returns the average sample, or 0 with no samples.
func (s *Summary) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.sum / time.Duration(s.count)
}

// Min and Max return the sample extremes (0 with no samples).
func (s *Summary) Min() time.Duration { return s.min }

// Max returns the largest sample.
func (s *Summary) Max() time.Duration { return s.max }

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded samples.
//
// While the summary holds at most exactSamples samples, the result is the
// exact nearest-rank order statistic (rank = ceil(q*n)), so short runs —
// including every committed BENCH_trail.json configuration — report exact
// p50/p99. Larger summaries fall back to the log-bucket histogram: the
// result is the upper bound of the bucket containing the target rank,
// clamped to [Min, Max]. Buckets grow by 10^(1/bucketsPerDecade) ≈ 1.0491
// per step, so the estimate never undershoots the true order statistic and
// overshoots it by at most a factor of ~1.049 (≈5% relative error);
// durations below minTracked (1µs) share bucket 0 and resolve only to the
// observed min/max.
func (s *Summary) Quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	if int64(len(s.samples)) == s.count {
		sorted := make([]time.Duration, len(s.samples))
		copy(sorted, s.samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		rank := int(math.Ceil(q * float64(s.count)))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	target := int64(q * float64(s.count))
	// Buckets are sparse; walk them in index order.
	maxB := bucketOf(s.max)
	var cum int64
	for b := 0; b <= maxB; b++ {
		cum += s.buckets[b]
		if cum > target {
			u := bucketUpper(b)
			if u > s.max {
				u = s.max
			}
			if u < s.min {
				u = s.min
			}
			return u
		}
	}
	return s.max
}

// Merge folds other into s. The exact-sample path survives a merge only if
// both sides still hold their full sample sets and the combined count fits
// within exactSamples; otherwise the merged summary is histogram-only.
func (s *Summary) Merge(other *Summary) {
	if other.count == 0 {
		return
	}
	if int64(len(s.samples)) == s.count && int64(len(other.samples)) == other.count &&
		s.count+other.count <= exactSamples {
		s.samples = append(s.samples, other.samples...)
	} else {
		s.samples = nil
	}
	if s.count == 0 || other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.count += other.count
	s.sum += other.sum
	for b, c := range other.buckets {
		s.buckets[b] += c
	}
}

// String formats the summary for experiment output.
func (s *Summary) String() string {
	if s.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v min=%v max=%v",
		s.count, s.Mean().Round(time.Microsecond), s.Quantile(0.5).Round(time.Microsecond),
		s.Quantile(0.95).Round(time.Microsecond), s.min.Round(time.Microsecond), s.max.Round(time.Microsecond))
}
