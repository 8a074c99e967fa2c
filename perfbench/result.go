package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's metrics, request tallies and failed checks.
type result struct {
	mu        sync.Mutex
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// maxFailureNotes bounds how many failed checks are kept verbatim.
const maxFailureNotes = 20

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == maxFailureNotes {
		r.failures = append(r.failures, "further failures omitted")
	}
}

// summary is the result line.
func (r *result) summary(trace bool) map[string]any {
	m := r.e2e
	if trace {
		m = r.layer
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// report prints one human-readable metric line and, for end-to-end names
// in the result line, stores it.
func report(w io.Writer, name string, v float64, unit string, n int) {
	if n >= 0 {
		fmt.Fprintf(w, "metric %-28s %14.4f %-8s n=%d\n", name, v, unit, n)
	} else {
		fmt.Fprintf(w, "metric %-28s %14.4f %s\n", name, v, unit)
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps NaN (no samples) to zero for the result line, which must
// carry a number for every metric.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
