package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kgexplore"
)

// TestSPARQLWideInterfaceAnswers: an 11-pattern chain with one FILTER over
// all of its variables outgrows every suffix-cache key. Every engine must
// answer it (uncached) with 200, not drop the connection.
func TestSPARQLWideInterfaceAnswers(t *testing.T) {
	const n = 11
	var nt strings.Builder
	for i := 0; i < n; i++ {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				fmt.Fprintf(&nt, "<n%d_%d> <p> <n%d_%d> .\n", i, a, i+1, b)
			}
		}
	}
	ds, err := kgexplore.LoadNTriples(strings.NewReader(nt.String()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ds).Handler())
	defer ts.Close()

	var where, sum strings.Builder
	fmt.Fprintf(&where, "<n0_0> <p> ?x0 .")
	sum.WriteString("?x0")
	for v := 1; v < n; v++ {
		fmt.Fprintf(&where, " ?x%d <p> ?x%d .", v-1, v)
		fmt.Fprintf(&sum, " + ?x%d", v)
	}
	q := fmt.Sprintf("SELECT COUNT(?x%d) WHERE { %s FILTER(%s != 0) }", n-1, where.String(), sum.String())
	for _, engine := range []string{"lftj", "ctj", "baseline", "aj", "wj"} {
		var chart ChartResponse
		resp := post(t, ts.URL+"/api/sparql", SPARQLRequest{Query: q, Engine: engine, BudgetMS: 50}, &chart)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", engine, resp.StatusCode)
		}
	}
}
