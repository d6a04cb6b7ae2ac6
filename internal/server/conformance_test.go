package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Conformance queries over tinyNT. groupedQ varies each walk's contribution
// within every shard that holds a person, so online CIs are non-zero;
// tippingUnion has a two-pattern branch whose suffix Audit Join tips into.
const (
	groupedQ     = `SELECT ?p COUNT(?o) WHERE { ?s ?p ?o } GROUP BY ?p`
	bagUnion     = `SELECT COUNT(?o) WHERE { { ?s <birthPlace> ?o } UNION { ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <City> } }`
	tippingUnion = `SELECT COUNT(?o) WHERE { { ?s <birthPlace> ?o . ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <City> } UNION { ?s <birthPlace> ?o } }`
	distinctU    = `SELECT COUNT(DISTINCT ?o) WHERE { { ?s <birthPlace> ?o } UNION { ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <City> } }`
)

// conformanceBackend is one epoch kind serving tinyNT, with what its final
// stream event must carry beyond the bars.
type conformanceBackend struct {
	name      string
	url       string
	telemetry func(ChartResponse) bool
}

// conformanceBackends serves tinyNT from a monolithic store, two in-process
// shards, a two-worker in-process fleet and a live overlay, all running the
// given sampling strategy.
func conformanceBackends(t *testing.T, strategy string) []conformanceBackend {
	t.Helper()
	mono := New(testDataset(t))
	sharded, shardedTS := newShardedTestServer(t, 2)
	dist, distTS, _ := newDistTestServer(t, 2, 2)
	live, _, liveTS := newLiveTestServer(t)
	monoTS := httptest.NewServer(mono.Handler())
	t.Cleanup(monoTS.Close)
	for _, srv := range []*Server{mono, sharded, dist, live} {
		srv.Strategy = strategy
	}
	online := func(c ChartResponse) bool {
		return c.Walks > 0 && (strategy != "stratified" || c.Strat != nil && c.Strat.Strata > 0)
	}
	return []conformanceBackend{
		{"monolithic", monoTS.URL, func(c ChartResponse) bool { return online(c) && c.Cache != nil }},
		{"sharded", shardedTS.URL, func(c ChartResponse) bool { return online(c) && c.Shards == 2 }},
		{"dist", distTS.URL, func(c ChartResponse) bool { return online(c) && c.Dist != nil && c.Dist.WireInBytes > 0 }},
		// Chart queries are COUNT(DISTINCT), which a live epoch answers
		// exactly: its final event carries the overlay state instead.
		{"live", liveTS.URL, func(c ChartResponse) bool { return c.Live != nil }},
	}
}

func barMap(c ChartResponse) map[string]float64 {
	m := make(map[string]float64, len(c.Bars))
	for _, b := range c.Bars {
		m[b.Category] = b.Count
	}
	return m
}

// TestBackendConformance sends one request list to every epoch kind: exact
// answers must be identical across backends, online answers must carry
// their walks, CIs and tipping telemetry, the final stream event must carry
// the run's telemetry, and bad engine requests must get a 400 everywhere.
func TestBackendConformance(t *testing.T) {
	type request struct {
		name   string
		chart  *ChartRequest
		sparql *SPARQLRequest
	}
	exactRequests := []request{
		{name: "chart-ctj", chart: &ChartRequest{Op: "out-property", Engine: "ctj"}},
		{name: "chart-lftj", chart: &ChartRequest{Op: "out-property", Engine: "lftj"}},
		{name: "chart-baseline", chart: &ChartRequest{Op: "out-property", Engine: "baseline"}},
		{name: "subclass-ctj", chart: &ChartRequest{Op: "subclass", Engine: "ctj"}},
		{name: "grouped-ctj", sparql: &SPARQLRequest{Query: groupedQ, Engine: "ctj"}},
		{name: "union-ctj", sparql: &SPARQLRequest{Query: bagUnion, Engine: "ctj"}},
		{name: "union-baseline", sparql: &SPARQLRequest{Query: tippingUnion, Engine: "baseline"}},
		// A DISTINCT union is answered exactly whatever engine is asked for.
		{name: "distinct-union-aj", sparql: &SPARQLRequest{Query: distinctU, Engine: "aj"}},
	}
	var want map[string]map[string]float64 // the first epoch's answers
	for _, strategy := range []string{"uniform", "stratified"} {
		for _, b := range conformanceBackends(t, strategy) {
			t.Run(strategy+"/"+b.name, func(t *testing.T) {
				var st StateResponse
				post(t, b.url+"/api/session", struct{}{}, &st)
				chartURL := b.url + "/api/session/" + st.Session + "/chart"
				do := func(rq request) (int, ChartResponse) {
					t.Helper()
					var c ChartResponse
					var resp *http.Response
					if rq.chart != nil {
						resp = post(t, chartURL, rq.chart, &c)
					} else {
						resp = post(t, b.url+"/api/sparql", rq.sparql, &c)
					}
					return resp.StatusCode, c
				}

				got := map[string]map[string]float64{}
				for _, rq := range exactRequests {
					code, c := do(rq)
					if code != http.StatusOK || c.NumBars == 0 || c.Walks != 0 {
						t.Fatalf("%s: status %d, %+v", rq.name, code, c)
					}
					got[rq.name] = barMap(c)
				}
				if want == nil {
					want = got
				}
				for name, bars := range got {
					if len(bars) != len(want[name]) {
						t.Errorf("%s: %v, monolithic %v", name, bars, want[name])
					}
					for cat, n := range want[name] {
						if bars[cat] != n {
							t.Errorf("%s: bar %q = %v, monolithic %v", name, cat, bars[cat], n)
						}
					}
				}

				for _, engine := range []string{"aj", "wj"} {
					code, c := do(request{sparql: &SPARQLRequest{Query: groupedQ, Engine: engine, BudgetMS: 50}})
					ci := 0.0
					for _, bar := range c.Bars {
						ci += bar.CI
					}
					if code != http.StatusOK || c.Walks <= 0 || ci <= 0 {
						t.Errorf("online %s: status %d, walks %d, summed CI %v", engine, code, c.Walks, ci)
					}
					code, c = do(request{sparql: &SPARQLRequest{Query: tippingUnion, Engine: engine, BudgetMS: 50}})
					tipped := c.Tips != nil && c.Tips.Tips > 0
					if code != http.StatusOK || c.Walks <= 0 || tipped != (engine == "aj") {
						t.Errorf("%s union: status %d, walks %d, tips %+v", engine, code, c.Walks, c.Tips)
					}
				}

				resp := postStream(t, chartURL+"?stream=1", ChartRequest{Op: "out-property", Engine: "aj", BudgetMS: 60, IntervalMS: 10})
				events := readEvents(t, resp, 0)
				resp.Body.Close()
				if len(events) == 0 {
					t.Fatal("stream: no events")
				}
				last := events[len(events)-1]
				for _, e := range events[:len(events)-1] {
					if e.Final {
						t.Errorf("stream: final event before the last: %+v", e)
					}
				}
				if !last.Final || last.NumBars == 0 || !b.telemetry(last) {
					t.Errorf("stream: final event lacks the run's telemetry: %+v", last)
				}

				for _, rq := range []request{
					{name: "unknown chart engine", chart: &ChartRequest{Op: "out-property", Engine: "nope"}},
					{name: "unknown sparql engine", sparql: &SPARQLRequest{Query: groupedQ, Engine: "nope"}},
				} {
					if code, _ := do(rq); code != http.StatusBadRequest {
						t.Errorf("%s: status %d, want 400", rq.name, code)
					}
				}
				for _, engine := range []string{"ctj", "nope"} {
					resp := postStream(t, chartURL+"?stream=1", ChartRequest{Op: "out-property", Engine: engine})
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("stream with engine %q: status %d, want 400", engine, resp.StatusCode)
					}
				}
			})
		}
	}
}
