package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"kgexplore/internal/ctj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v, beyond, ok := Percentile(seq(100), 0.9)
	if v != 90 || beyond != 10 || !ok {
		t.Fatalf("p90 of 1..100 = %v, %d beyond, ok=%v; want 90, 10, true", v, beyond, ok)
	}
	if _, beyond, ok := Percentile(seq(99), 0.9); ok || beyond != 9 {
		t.Fatalf("p90 of 99 samples: %d beyond, ok=%v; want 9, false", beyond, ok)
	}
	if v, beyond, ok := Percentile(seq(20), 0.5); v != 10 || beyond != 10 || !ok {
		t.Fatalf("p50 of 1..20 = %v, %d beyond, ok=%v; want 10, 10, true", v, beyond, ok)
	}
	if _, _, ok := Percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := Median([]float64{3}); m != 3 {
		t.Fatalf("median of one sample = %v", m)
	}
}

func TestSampleCountsReported(t *testing.T) {
	tl := &Tally{ExactMS: seq(120), OnlineMS: seq(100), RelCI: []float64{0.1}, Covered: 1, CoverTotal: 1, Attempted: 220}
	meta := map[string]any{}
	if _, err := e2eResult(tl, []float64{1}, 1, 1, meta); err != nil {
		t.Fatal(err)
	}
	s := meta["samples"].(map[string]int)
	if s["exact"] != 120 || s["exact_beyond_p90"] != 12 || s["online"] != 100 || s["online_beyond_p90"] != 10 {
		t.Fatalf("sample counts %v", s)
	}
	tl.OnlineMS = seq(99)
	if _, err := e2eResult(tl, []float64{1}, 1, 1, meta); err == nil {
		t.Fatal("p90 over 99 samples was reported")
	}
}

func TestMeanRelCI(t *testing.T) {
	cases := []struct {
		name string
		bars []Bar
		want float64
		ok   bool
	}{
		{"plain", []Bar{{"a", 100, 10}, {"b", 50, 10}}, (0.1 + 0.2) / 2, true},
		{"exact zero counts as 0", []Bar{{"a", 100, 10}, {"b", 0, 0}}, 0.05, true},
		{"zero estimate with CI skipped", []Bar{{"a", 100, 10}, {"b", 0, 5}}, 0.1, true},
		{"zero-CI bar counts as 0", []Bar{{"a", 100, 0}, {"b", 100, 20}}, 0.1, true},
		{"only unbounded bars", []Bar{{"b", 0, 5}}, 0, false},
		{"no bars", nil, 0, false},
	}
	for _, c := range cases {
		got, ok := MeanRelCI(c.bars)
		if ok != c.ok || (ok && abs(got-c.want) > 1e-12) {
			t.Errorf("%s: got %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
	if sampled([]Bar{{"a", 3, 0}, {"b", 0, 0}}) || !sampled([]Bar{{"a", 3, 0}, {"b", 1, 0.5}}) {
		t.Error("sampled() misclassifies exact and estimated answers")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCoverage(t *testing.T) {
	truth := map[string]float64{"a": 100, "b": 50, "c": 7}
	bars := []Bar{
		{"a", 95, 5},  // on the edge: covered
		{"b", 40, 5},  // outside
		{"c", 7, 0},   // exact, zero CI: covered
		{"x", 3, 2.5}, // absent from the truth: exact value 0, outside
	}
	if c, n := Coverage(bars, truth); c != 2 || n != 4 {
		t.Fatalf("coverage %d/%d, want 2/4", c, n)
	}
}

func TestLabelMatching(t *testing.T) {
	d := rdf.NewDict()
	a := d.InternIRI("http://x/a")
	b := d.InternIRI("http://x/b")
	truth := labelTruth(d, map[rdf.ID]float64{a: 3, b: 5})
	if err := MatchExact([]Bar{{"http://x/b", 5, 0}, {"http://x/a", 3, 0}}, truth); err != nil {
		t.Fatalf("same chart in another order: %v", err)
	}
	for name, bars := range map[string][]Bar{
		"wrong count":    {{"http://x/a", 4, 0}, {"http://x/b", 5, 0}},
		"missing bar":    {{"http://x/a", 3, 0}},
		"extra bar":      {{"http://x/a", 3, 0}, {"http://x/b", 5, 0}, {"http://x/c", 1, 0}},
		"repeated label": {{"http://x/a", 3, 0}, {"http://x/a", 3, 0}},
		"bracketed IRI":  {{"<http://x/a>", 3, 0}, {"http://x/b", 5, 0}},
	} {
		if MatchExact(bars, truth) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	all := labelTruth(d, map[rdf.ID]float64{ctj.GlobalGroup: 42})
	if err := MatchExact([]Bar{{"(all)", 42, 0}}, all); err != nil {
		t.Fatalf("ungrouped result: %v", err)
	}
}

func TestPrinterMisnames(t *testing.T) {
	p := query.Pattern{S: query.V(0), P: query.V(1), O: query.V(2)}
	same := &query.UnionQuery{Branches: []*query.Query{
		{Patterns: []query.Pattern{p}, Alpha: 1, Beta: 0},
		{Patterns: []query.Pattern{p}, Alpha: 1, Beta: 0},
	}}
	diff := &query.UnionQuery{Branches: []*query.Query{
		{Patterns: []query.Pattern{p}, Alpha: 1, Beta: 0},
		{Patterns: []query.Pattern{p}, Alpha: 2, Beta: 0},
	}}
	if printerMisnames(same) || !printerMisnames(diff) {
		t.Fatal("printerMisnames misclassifies")
	}
}

func TestCorrectOnlyWithKnownFailures(t *testing.T) {
	tl := &Tally{ExactMS: seq(100), OnlineMS: seq(100), RelCI: []float64{0.1}, Covered: 1, CoverTotal: 1}
	tl.op(errors.New("misnamed union"), true, "q")
	tl.op(nil, false, "q")
	res, err := e2eResult(tl, []float64{1}, 1, 1, map[string]any{})
	if err != nil || !res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("known failure: %+v, %v", res, err)
	}
	tl.op(errors.New("wrong answer"), false, "q")
	if res, _ = e2eResult(tl, []float64{1}, 1, 1, map[string]any{}); res.Correct {
		t.Fatal("an unexpected failure left the run correct")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exec.drive", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "core.walk", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "wj.snapshot", Start: 50, End: 60},
		{ID: 5, Parent: 2, Name: "core.walk", Start: 60, End: 85},
	}
	self := SelfTimes(spans)
	if self["request"][0] != 20 || self["exec.drive"][0] != 5 || self["wj.snapshot"][0] != 10 {
		t.Fatalf("self times %v", self)
	}
	if w := self["core.walk"]; len(w) != 2 || w[0]+w[1] != 65 {
		t.Fatalf("walk self times %v", w)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd []Bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	return b
}

func baseline(bounds []Bound) Result {
	r := Result{Correct: true, Attempted: 1000, Metrics: map[string]Metric{}}
	for _, b := range bounds {
		r.Metrics[b.Name] = Metric{Value: 0.5, Unit: "x"}
	}
	return r
}

// TestCompareRejects is the comparison self-test: a report with any one
// metric twice as bad, or with failures injected, must fail against the
// benchmark's own bounds, and an identical report must pass.
func TestCompareRejects(t *testing.T) {
	bounds := readBenchmark(t).EndToEnd
	base := baseline(bounds)
	if bad := Compare(base, base, bounds); len(bad) != 0 {
		t.Fatalf("identical report rejected: %v", bad)
	}
	for _, b := range bounds {
		cand := baseline(bounds)
		v := base.Metrics[b.Name].Value
		if b.Better == "lower" {
			cand.Metrics[b.Name] = Metric{Value: 2 * v}
		} else {
			cand.Metrics[b.Name] = Metric{Value: v / 2}
		}
		bad := Compare(base, cand, bounds)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], b.Name+":") {
			t.Errorf("%s twice as bad: violations %v", b.Name, bad)
		}
	}
	cand := baseline(bounds)
	cand.Failed = 1
	if len(Compare(base, cand, bounds)) == 0 {
		t.Error("nonzero error ratio accepted")
	}
	cand = baseline(bounds)
	cand.Correct = false
	if len(Compare(base, cand, bounds)) == 0 {
		t.Error("incorrect report accepted")
	}
}

// TestReportedNamesMatchBenchmark checks that both kinds of run report
// exactly the metrics BENCHMARK.json declares, with the declared units.
func TestReportedNamesMatchBenchmark(t *testing.T) {
	b := readBenchmark(t)
	tl := &Tally{ExactMS: seq(100), OnlineMS: seq(100), RelCI: []float64{0.1}, Covered: 1, CoverTotal: 1, Attempted: 1}
	e2e, err := e2eResult(tl, []float64{1}, 1, 1, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared["layer "+m.Name] = m.Unit
	}
	got := map[string]string{}
	for n, m := range e2e.Metrics {
		got[n] = m.Unit
	}
	for n, m := range (&layerRun{tr: newTracer()}).metrics() {
		got["layer "+n] = m.Unit
	}
	if !reflect.DeepEqual(got, declared) {
		t.Fatalf("reported %v\ndeclared %v", got, declared)
	}
}
