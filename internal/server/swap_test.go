package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kgexplore"
)

// altNT is a second dataset with a different shape (and thus different
// dictionary IDs) so swap tests can tell old and new stores apart.
const altNT = `
<d1> <locatedIn> <peru> .
<d2> <locatedIn> <peru> .
<d3> <locatedIn> <chile> .
<d4> <locatedIn> <chile> .
<d1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dam> .
<d2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dam> .
<d3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dam> .
<d4> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dam> .
<peru> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Country> .
<chile> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Country> .
`

func loadNT(t *testing.T, nt string) *kgexplore.Dataset {
	t.Helper()
	ds, err := kgexplore.LoadNTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// closeProbe records whether (and how often) an epoch's closer ran.
type closeProbe struct{ closed atomic.Int32 }

func (c *closeProbe) Close() error { c.closed.Add(1); return nil }

// TestSwapDrainsOldStore pins the drain contract deterministically: the old
// epoch's closer must not run while any request-side reference is live, and
// must run exactly once when the last reference goes away.
func TestSwapDrainsOldStore(t *testing.T) {
	probe := &closeProbe{}
	srv := NewWithProvenance(loadNT(t, tinyNT), Provenance{Kind: "parsed"}, probe)
	// A request pins the first epoch...
	e := srv.acquire()
	// ...and a swap arrives mid-flight.
	srv.Swap(loadNT(t, altNT), Provenance{Kind: "parsed"}, nil)
	if got := probe.closed.Load(); got != 0 {
		t.Fatalf("old store closed %d times with a request in flight", got)
	}
	if srv.Swaps() != 1 {
		t.Errorf("Swaps() = %d", srv.Swaps())
	}
	// New acquisitions see the new epoch and never touch the old closer.
	e2 := srv.acquire()
	e2.release()
	if got := probe.closed.Load(); got != 0 {
		t.Fatalf("old store closed %d times before drain", got)
	}
	e.release()
	if got := probe.closed.Load(); got != 1 {
		t.Fatalf("old store closed %d times after drain, want 1", got)
	}
}

// TestSwapClearsSessions: sessions carry exploration states whose IDs index
// the old dictionary, so they must not survive a swap.
func TestSwapClearsSessions(t *testing.T) {
	srv := New(loadNT(t, tinyNT))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)
	srv.Swap(loadNT(t, altNT), Provenance{Kind: "parsed"}, nil)
	resp, err := http.Get(ts.URL + "/api/session/" + st.Session)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stale session answered %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := NewWithProvenance(loadNT(t, tinyNT),
		Provenance{Source: "tiny.nt", Kind: "parsed", Triples: 10}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() HealthResponse {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := get()
	if h.Status != "ok" || h.Store.Source != "tiny.nt" || h.Store.Kind != "parsed" {
		t.Errorf("healthz = %+v", h)
	}
	srv.Swap(loadNT(t, altNT), Provenance{Source: "alt.nt", Kind: "parsed"}, nil)
	if h := get(); h.Swaps != 1 || h.Store.Source != "alt.nt" {
		t.Errorf("healthz after swap = %+v", h)
	}
}

// TestAdminSwapEndpoint exercises the full operator path: write a store
// snapshot, POST /admin/swap to it, and watch queries answer from the new
// data. Also checks the endpoint is absent unless EnableAdmin is set.
func TestAdminSwapEndpoint(t *testing.T) {
	srv := New(loadNT(t, tinyNT))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := post(t, ts.URL+"/admin/swap", SwapRequest{Path: "x"}, nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("admin endpoint mounted without EnableAdmin")
	}
	ts.Close()

	srv.EnableAdmin = true
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()

	snapPath := filepath.Join(t.TempDir(), "alt.kgs")
	if err := loadNT(t, altNT).WriteStoreSnapshotFile(snapPath, "alt"); err != nil {
		t.Fatal(err)
	}
	var sr SwapResponse
	if resp := post(t, ts.URL+"/admin/swap", SwapRequest{Path: snapPath}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d", resp.StatusCode)
	}
	if sr.Store.Kind != "snapshot" || sr.Swaps != 1 {
		t.Errorf("swap response = %+v", sr)
	}
	// The new data answers: altNT has 4 Dam instances.
	var chart ChartResponse
	post(t, ts.URL+"/api/sparql", SPARQLRequest{
		Query:  `SELECT COUNT(?x) WHERE { ?x a <Dam> . }`,
		Engine: "ctj",
	}, &chart)
	if len(chart.Bars) != 1 || chart.Bars[0].Count != 4 {
		t.Errorf("post-swap chart = %+v", chart)
	}
	// A bad path must not disturb the serving epoch.
	if resp := post(t, ts.URL+"/admin/swap", SwapRequest{Path: "/nonexistent.kgs"}, nil); resp.StatusCode == http.StatusOK {
		t.Error("swap to missing file succeeded")
	}
	if got := srv.Swaps(); got != 1 {
		t.Errorf("Swaps() = %d after failed swap", got)
	}
}

// TestHotSwapUnderLoad hammers the query endpoint from many goroutines while
// the store is swapped repeatedly between two snapshot epochs. Every request
// must complete successfully (no dropped in-flight runs), and — run under
// -race in CI — the epoch lifecycle must be free of data races. The query
// uses only rdf:type, which both datasets intern during load, so concurrent
// parsing never mutates a dictionary.
func TestHotSwapUnderLoad(t *testing.T) {
	sp1 := filepath.Join(t.TempDir(), "a.kgs")
	sp2 := filepath.Join(t.TempDir(), "b.kgs")
	if err := loadNT(t, tinyNT).WriteStoreSnapshotFile(sp1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := loadNT(t, altNT).WriteStoreSnapshotFile(sp2, "b"); err != nil {
		t.Fatal(err)
	}
	ds, prov, closer, err := LoadDataset(sp1, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithProvenance(ds, prov, closer)
	srv.EnableAdmin = true
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers, perWorker, swapsWanted = 8, 40, 6
	var wg sync.WaitGroup
	var failures atomic.Int32
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Counting rdf:type edges is valid on either store, and both
			// dictionaries hold the rdf:type constant already (every load
			// interns it), so concurrent parsing is read-only on the
			// dictionary.
			body := fmt.Sprintf(`{"query":"SELECT COUNT(?x) WHERE { ?x a ?t . }","engine":"%s","budgetMs":5}`,
				[]string{"ctj", "aj"}[w%2])
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/api/sparql", "application/json", strings.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	var swapFailures atomic.Int32
	go func() {
		// No t.Fatal here: FailNow must not run off the test goroutine.
		defer close(done)
		paths := [2]string{sp2, sp1}
		for i := 0; i < swapsWanted; i++ {
			body := fmt.Sprintf(`{"path":%q}`, paths[i%2])
			resp, err := http.Post(ts.URL+"/admin/swap", "application/json", strings.NewReader(body))
			if err != nil || resp.StatusCode != http.StatusOK {
				swapFailures.Add(1)
			}
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	<-done
	if n := swapFailures.Load(); n != 0 {
		t.Errorf("%d swaps failed", n)
	}
	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d requests failed across swaps", n, workers*perWorker)
	}
	if got := srv.Swaps(); got != swapsWanted {
		t.Errorf("Swaps() = %d, want %d", got, swapsWanted)
	}
	// After traffic drains, exactly one epoch (the final one) must be live;
	// swapping once more and releasing the server reference closes it too.
	if h := func() HealthResponse {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}(); h.Store.Kind != "snapshot" {
		t.Errorf("final store provenance = %+v", h.Store)
	}
}
