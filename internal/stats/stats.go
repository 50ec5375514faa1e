// Package stats provides the small statistical toolkit used by the
// benchmark harness: streaming summaries and fixed-width table rendering
// for reproducing the paper's figures as text.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations and produces summary statistics in O(1)
// space. The zero value is an empty sample ready for use.
type Sample struct {
	n     int
	sum   float64
	sumSq float64
	min   float64
	max   float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += float64(v * v)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (n-1 denominator),
// or 0 when fewer than two observations exist.
func (s *Sample) Variance() float64 {
	n := float64(s.n)
	if n < 2 {
		return 0
	}
	v := (s.sumSq - s.sum*s.sum/n) / (n - 1)
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		s.N(), s.Mean(), s.Min(), s.Max(), s.StdDev())
}
