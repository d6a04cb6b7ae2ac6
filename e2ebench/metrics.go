package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: p90 needs at least 100 samples, p50 at least 20.
const minBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples strictly beyond it. ok is false when fewer than
// minBeyond samples lie beyond the rank, so the percentile is not reported.
func Percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// Median is the 0.5 nearest-rank percentile without the samples-beyond
// requirement (used for per-layer figures and repeated set-up times).
func Median(xs []float64) float64 {
	v, _, _ := Percentile(xs, 0.5)
	return v
}

// Bar is one chart bar as the server returns it.
type Bar struct {
	Category string  `json:"category"`
	Count    float64 `json:"count"`
	CI       float64 `json:"ci"`
}

// MeanRelCI is the mean over bars of CI/estimate. A bar whose estimate and
// CI are both zero is an exact zero and contributes 0; a zero estimate with
// a nonzero CI has an unbounded relative width and is skipped. ok is false
// when no bar contributed.
func MeanRelCI(bars []Bar) (v float64, ok bool) {
	var sum float64
	n := 0
	for _, b := range bars {
		switch {
		case b.Count != 0:
			sum += b.CI / math.Abs(b.Count)
		case b.CI != 0:
			continue
		}
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// sampled reports whether an online answer was estimated by sampling: some
// bar carries a confidence interval. The server answers some aj requests
// exactly (COUNT(DISTINCT) over shards or the live overlay), and those
// have no relative CI to report.
func sampled(bars []Bar) bool {
	for _, b := range bars {
		if b.CI > 0 {
			return true
		}
	}
	return false
}

// Coverage counts the returned bars whose exact value lies within the
// bar's ±CI. A bar whose label is absent from the truth has exact value 0.
func Coverage(bars []Bar, truth map[string]float64) (covered, total int) {
	for _, b := range bars {
		exact := truth[b.Category]
		if math.Abs(exact-b.Count) <= b.CI*(1+1e-9)+1e-9 {
			covered++
		}
		total++
	}
	return covered, total
}

// MatchExact compares an exact chart bar for bar with the truth, keyed by
// label: both sides must have the same label set and equal counts. It
// returns nil on a match and a description of the first difference
// otherwise.
func MatchExact(bars []Bar, truth map[string]float64) error {
	seen := make(map[string]bool, len(bars))
	for _, b := range bars {
		if seen[b.Category] {
			return fmt.Errorf("label %q repeated", b.Category)
		}
		seen[b.Category] = true
		want, ok := truth[b.Category]
		if !ok {
			return fmt.Errorf("unexpected label %q (count %g)", b.Category, b.Count)
		}
		if math.Abs(want-b.Count) > 1e-6*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("label %q: got %g, want %g", b.Category, b.Count, want)
		}
	}
	if len(seen) != len(truth) {
		for l := range truth {
			if !seen[l] {
				return fmt.Errorf("missing label %q (%d bars, want %d)", l, len(bars), len(truth))
			}
		}
	}
	return nil
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Bound is one end-to-end metric's regression rule, as in BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Compare checks a candidate result against a baseline: it fails when the
// candidate is incorrect, fails more operations, or any bounded metric is
// worse than the baseline by more than its bound (as a share of the
// baseline value). It returns every violation found.
func Compare(base, cand Result, bounds []Bound) []string {
	var bad []string
	if !cand.Correct {
		bad = append(bad, "candidate reports incorrect outputs")
	}
	if errRatio(cand) > errRatio(base) {
		bad = append(bad, fmt.Sprintf("error ratio %.4f > baseline %.4f", errRatio(cand), errRatio(base)))
	}
	for _, b := range bounds {
		bm, ok1 := base.Metrics[b.Name]
		cm, ok2 := cand.Metrics[b.Name]
		if !ok1 || !ok2 {
			bad = append(bad, fmt.Sprintf("%s: missing", b.Name))
			continue
		}
		var worse float64
		switch b.Better {
		case "lower":
			worse = (cm.Value - bm.Value) / math.Abs(bm.Value)
		case "higher":
			worse = (bm.Value - cm.Value) / math.Abs(bm.Value)
		default:
			bad = append(bad, fmt.Sprintf("%s: unknown direction %q", b.Name, b.Better))
			continue
		}
		if worse > b.Bound {
			bad = append(bad, fmt.Sprintf("%s: %g -> %g is %.1f%% worse (bound %.1f%%)",
				b.Name, bm.Value, cm.Value, 100*worse, 100*b.Bound))
		}
	}
	return bad
}

func errRatio(r Result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}
