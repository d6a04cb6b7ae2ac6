// Package server implements the web-application side of the paper's system
// architecture (Fig. 1): a JSON/HTTP API over the exploration model and the
// query engines, plus a minimal built-in web UI that renders the bar charts.
//
// Sessions hold exploration state (the current bar and the undo stack);
// chart requests pick an engine — Audit Join by default, for the paper's
// interactive-latency goal — and a time budget for the online estimators.
// Every engine call runs under the request's context, so an abandoned
// request stops computing; `?stream=1` on the chart endpoints switches to
// Server-Sent Events with a progressive snapshot per interval — online
// aggregation over the wire.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore"
)

// Provenance records where a served store came from, for /healthz and swap
// responses.
type Provenance struct {
	// Source is the file path or generator spec the store came from.
	Source string `json:"source"`
	// Kind is how it was materialized: "parsed" (text formats or graph
	// snapshots, through index.Build), "snapshot" (store snapshot, no
	// build), "generated", or "sharded" (a shard-set manifest).
	Kind string `json:"kind"`
	// Mmap is set on zero-copy snapshot loads.
	Mmap bool `json:"mmap,omitempty"`
	// Triples is the store's triple count at load time.
	Triples int `json:"triples"`
	// Shards is the shard count for sharded stores (0 for monolithic).
	Shards int `json:"shards,omitempty"`
	// Workers is the fleet size for distributed stores (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// LoadMillis is how long the load (parse+build, or snapshot read) took.
	LoadMillis int64 `json:"loadMillis"`
}

// epoch is one served dataset generation. Requests acquire the current epoch
// for their whole run, so a hot swap never frees a store out from under an
// in-flight query: the old epoch's closer (an mmap'ed snapshot, typically)
// runs only when the server reference and every request reference are gone.
type epoch struct {
	be     kgexplore.Backend
	prov   Provenance
	closer io.Closer
	refs   atomic.Int64 // starts at 1 for the server's own reference
}

func newEpoch(be kgexplore.Backend, prov Provenance, closer io.Closer) *epoch {
	e := &epoch{be: be, prov: prov, closer: closer}
	e.refs.Store(1)
	return e
}

// release drops one reference; the last one out closes the backing store.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 && e.closer != nil {
		e.closer.Close()
	}
}

// Server is the HTTP handler. Create with New and mount with Handler.
type Server struct {
	// cur is the serving epoch; guarded by mu, swapped atomically by Swap.
	cur   *epoch
	swaps int

	mu        sync.Mutex
	sessions  map[string]*session
	nextID    int64
	lastSweep time.Time
	// planCaches is the warm-start LRU: one shared CTJ cache per plan
	// signature, handed to every aj run of that plan. The eLinda exploration
	// workflow re-issues overlapping queries as the user expands bars, so
	// successive requests reuse suffix counts and Pr(b) sums computed by
	// earlier ones. Guarded by mu; bounded by MaxPlanCaches.
	planCaches map[string]*planCache

	// MaxBudget caps per-request online-aggregation time.
	MaxBudget time.Duration
	// SessionTTL is how long an untouched session survives; expired
	// sessions are removed by a lazy sweep on session traffic.
	SessionTTL time.Duration
	// MaxSessions caps live sessions; creating one beyond the cap evicts
	// the least recently used session.
	MaxSessions int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: the profiling endpoints expose internals and should
	// only be reachable when explicitly requested (kgserver -pprof).
	EnablePprof bool
	// MaxPlanCaches caps the warm-start LRU of shared CTJ caches (one per
	// plan signature); creating one beyond the cap evicts the least recently
	// used cache. Zero or negative disables cross-request warm starts.
	MaxPlanCaches int
	// EnableAdmin mounts the mutating admin endpoints (POST /admin/swap).
	// Off by default: swapping the served store is an operator action
	// (kgserver -admin).
	EnableAdmin bool
	// Estimator, when set, is applied (Dataset.UseEstimator) to every
	// dataset installed by an admin swap, so a server started with
	// -estimator keeps its selection across hot swaps. The initial dataset's
	// estimator is the embedding process's job (kgserver sets both).
	Estimator string
	// Strategy selects the online sampling strategy: "uniform" (default,
	// uniform walk roots) or "stratified" (semantic-aware stratified
	// sampling — walk roots stratified by characteristic-set bucket with
	// Neyman-allocated budgets). Applies to aj and wj runs on every epoch
	// kind: monolithic runners, sharded scatter and distributed runs.
	Strategy string

	// tipDiag accumulates estimate-vs-actual tipping diagnostics across
	// every Audit Join run this process served, for /healthz; guarded by mu.
	tipDiag kgexplore.TipDiagnostics

	// now is the clock, overridable in tests.
	now func() time.Time
}

type session struct {
	state    *kgexplore.ExploreState
	stack    []*kgexplore.ExploreState
	lastUsed time.Time
}

// planCache is one warm-start entry: the shared CTJ cache for a plan
// signature (monolithic aj runs) or the per-shard suffix caches (sharded
// scatter-gather runs), plus its LRU timestamp. Both kinds key on the plan
// signature and are dropped wholesale on Swap, since their keys embed the
// epoch's dictionary IDs.
type planCache struct {
	cache       *kgexplore.SharedCTJCache
	shardCaches []*kgexplore.ShardCache
	lastUsed    time.Time
}

// New creates a server over a prepared dataset. Use NewWithProvenance to
// record where the dataset came from (and, for mmap'ed snapshot loads, the
// closer that Swap releases once the epoch drains).
func New(ds *kgexplore.Dataset) *Server {
	return NewWithProvenance(ds, Provenance{Kind: "parsed", Triples: ds.NumTriples()}, nil)
}

// NewWithProvenance creates a server over a prepared dataset with explicit
// store provenance. closer, if non-nil, is closed when the dataset's epoch
// fully drains after a Swap (never while any request still uses it).
func NewWithProvenance(ds *kgexplore.Dataset, prov Provenance, closer io.Closer) *Server {
	return NewBackend(ds, prov, closer)
}

// NewSharded creates a server over a sharded dataset; chart requests then
// run scatter-gather Audit Join instead of the monolithic engines. The shard
// set owns its snapshot mappings; closing it is the epoch drain action.
func NewSharded(sds *kgexplore.ShardedDataset, prov Provenance) *Server {
	return NewBackend(sds, prov, sds)
}

// NewLive creates a server over a live (updatable) dataset: POST /ingest
// accepts triple batches, chart requests run merged-view Audit Join over
// the overlay, and /healthz reports overlay, compaction and WAL telemetry.
// Background compaction is the embedding process's job (kgserver -live);
// after each compaction it calls RotateLiveEpoch with the retired base,
// which becomes the drained epoch's closer. The live store's own base is
// closed by LiveDataset.Close at process exit.
func NewLive(lds *kgexplore.LiveDataset, prov Provenance) *Server {
	return NewBackend(lds, prov, nil)
}

// NewDist creates a server over a distributed dataset: chart requests run
// coordinator-driven scatter-gather over the kgworker fleet, /healthz
// reports per-worker stats, and /admin/swap (with EnableAdmin) performs the
// epoch-coordinated fleet-wide hot swap. Closing the dist dataset releases
// only the LOCAL dictionary mapping; the workers own their stores.
func NewDist(dds *kgexplore.DistDataset, prov Provenance) *Server {
	return NewBackend(dds, prov, dds)
}

// NewBackend creates a server over any backend. closer, if non-nil, is
// closed once the backend's epoch fully drains after a Swap.
func NewBackend(be kgexplore.Backend, prov Provenance, closer io.Closer) *Server {
	return &Server{
		cur:           newEpoch(be, prov, closer),
		sessions:      make(map[string]*session),
		planCaches:    make(map[string]*planCache),
		MaxBudget:     5 * time.Second,
		SessionTTL:    30 * time.Minute,
		MaxSessions:   10_000,
		MaxPlanCaches: 256,
		now:           time.Now,
	}
}

// acquire pins the current epoch for one request. The caller must release
// it when done (defer e.release()).
func (s *Server) acquire() *epoch {
	s.mu.Lock()
	e := s.cur
	e.refs.Add(1)
	s.mu.Unlock()
	return e
}

// Swap atomically replaces the served dataset with any backend: new requests
// see the new epoch immediately; sessions and warm-start caches are dropped
// (their exploration states and cache keys embed the old dictionary's IDs);
// the old store stays alive until the last in-flight request releases it,
// at which point its closer (if any) runs. Safe to call concurrently with
// request traffic — that is its purpose.
func (s *Server) Swap(be kgexplore.Backend, prov Provenance, closer io.Closer) {
	s.mu.Lock()
	old := s.cur
	s.cur = newEpoch(be, prov, closer)
	s.sessions = make(map[string]*session)
	s.planCaches = make(map[string]*planCache)
	s.swaps++
	s.mu.Unlock()
	old.release()
}

// RotateLiveEpoch re-epochs a live dataset after a background compaction
// adopted a new base: the current epoch — whose in-flight requests may
// still hold views over the retired base — gets the retired closer and
// drains, while a fresh epoch over the SAME live dataset serves on.
// Sessions and plan caches survive: compaction does not change dictionary
// IDs or live content. No-op (closing retired immediately) if the serving
// epoch is not live.
func (s *Server) RotateLiveEpoch(retired io.Closer) {
	s.mu.Lock()
	old := s.cur
	lds, ok := old.be.(*kgexplore.LiveDataset)
	if !ok {
		s.mu.Unlock()
		if retired != nil {
			retired.Close()
		}
		return
	}
	ne := newEpoch(lds, old.prov, nil)
	ne.prov.Triples = lds.NumTriples()
	old.closer = retired
	s.cur = ne
	s.mu.Unlock()
	old.release()
}

// Swaps returns how many times the served store has been hot-swapped.
func (s *Server) Swaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swaps
}

// sharedCacheFor returns the warm-start cache for the plan's signature,
// creating it (and evicting the least recently used entry over the cap) on
// first sight. Concurrent requests for the same signature share one cache —
// that is the point: the cache type is concurrency-safe.
func (s *Server) sharedCacheFor(pl *kgexplore.Plan) *kgexplore.SharedCTJCache {
	if s.MaxPlanCaches <= 0 {
		return nil
	}
	sig := pl.Query.Signature()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.planCaches[sig]
	if !ok {
		e = &planCache{cache: kgexplore.NewSharedCTJCache()}
		s.insertPlanCacheLocked(sig, e)
	}
	e.lastUsed = now
	return e.cache
}

// shardCachesFor is sharedCacheFor's sharded counterpart: the warm
// per-shard suffix caches for the plan's signature, shared by every
// scatter-gather run of that plan within the epoch.
func (s *Server) shardCachesFor(pl *kgexplore.Plan, k int) []*kgexplore.ShardCache {
	if s.MaxPlanCaches <= 0 {
		return nil
	}
	sig := pl.Query.Signature()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.planCaches[sig]
	if !ok {
		e = &planCache{}
		s.insertPlanCacheLocked(sig, e)
	}
	if len(e.shardCaches) != k {
		e.shardCaches = kgexplore.NewShardCaches(k)
	}
	e.lastUsed = now
	return e.shardCaches
}

// insertPlanCacheLocked adds a warm-start entry, evicting the least
// recently used one over the cap; callers hold s.mu.
func (s *Server) insertPlanCacheLocked(sig string, e *planCache) {
	for len(s.planCaches) >= s.MaxPlanCaches {
		var oldest string
		var oldestT time.Time
		for k, pc := range s.planCaches {
			if oldest == "" || pc.lastUsed.Before(oldestT) {
				oldest, oldestT = k, pc.lastUsed
			}
		}
		delete(s.planCaches, oldest)
	}
	s.planCaches[sig] = e
}

// InvalidateShared drops every warm-start cache. This is the invalidation
// hook for dataset changes: cache keys embed dictionary IDs, so a server
// whose backing data is swapped or re-loaded must call this before serving
// the new dataset.
func (s *Server) InvalidateShared() {
	s.mu.Lock()
	s.planCaches = make(map[string]*planCache)
	s.mu.Unlock()
}

// sweepLocked drops sessions idle past SessionTTL. It runs at most once per
// quarter TTL so session traffic stays O(1) amortized; callers hold s.mu.
func (s *Server) sweepLocked(now time.Time) {
	if s.SessionTTL <= 0 || now.Sub(s.lastSweep) < s.SessionTTL/4 {
		return
	}
	s.lastSweep = now
	for id, sess := range s.sessions {
		if now.Sub(sess.lastUsed) > s.SessionTTL {
			delete(s.sessions, id)
		}
	}
}

// evictOldestLocked removes the least recently used session; callers hold
// s.mu and have already swept.
func (s *Server) evictOldestLocked() {
	var oldest string
	var oldestT time.Time
	for id, sess := range s.sessions {
		if oldest == "" || sess.lastUsed.Before(oldestT) {
			oldest, oldestT = id, sess.lastUsed
		}
	}
	if oldest != "" {
		delete(s.sessions, oldest)
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/info", s.handleInfo)
	mux.HandleFunc("POST /api/session", s.handleNewSession)
	mux.HandleFunc("GET /api/session/{id}", s.handleGetSession)
	mux.HandleFunc("POST /api/session/{id}/chart", s.handleChart)
	mux.HandleFunc("POST /api/session/{id}/select", s.handleSelect)
	mux.HandleFunc("POST /api/session/{id}/back", s.handleBack)
	mux.HandleFunc("POST /api/sparql", s.handleSPARQL)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.EnableAdmin {
		mux.HandleFunc("POST /admin/swap", s.handleAdminSwap)
	}
	mux.HandleFunc("GET /", s.handleIndex)
	if s.EnablePprof {
		// Method-qualified so the patterns compose with "GET /" above under
		// the 1.22 mux precedence rules; POST /debug/pprof/symbol is the one
		// pprof endpoint that accepts both methods.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// InfoResponse describes the dataset.
type InfoResponse struct {
	Triples    int   `json:"triples"`
	IndexBytes int64 `json:"indexBytes"`
	Shards     int   `json:"shards,omitempty"`
	Workers    int   `json:"workers,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	e := s.acquire()
	defer e.release()
	writeJSON(w, http.StatusOK, InfoResponse{
		Triples:    e.be.NumTriples(),
		IndexBytes: e.be.IndexBytes(),
		Shards:     e.be.NumShards(),
		Workers:    e.prov.Workers,
	})
}

// HealthResponse is the /healthz payload: liveness plus store provenance,
// so an operator can see at a glance what data is being served, how it got
// there, and how often it has been replaced.
type HealthResponse struct {
	Status    string     `json:"status"`
	Store     Provenance `json:"store"`
	Swaps     int        `json:"swaps"`
	Shards    int        `json:"shards,omitempty"`
	Sessions  int        `json:"sessions"`
	Estimator string     `json:"estimator"`
	// Live carries the overlay telemetry of a live epoch: view generation,
	// layer sizes, applied batches, compaction and WAL counters.
	Live *kgexplore.LiveStats `json:"live,omitempty"`
	// LastError surfaces the most recent background persistence or
	// compaction error of a live epoch (WAL or compaction failures) so
	// operators see failures without polling.
	LastError string `json:"lastError,omitempty"`
	// Strategy is the walk-allocation strategy every online run uses:
	// "uniform" or "stratified".
	Strategy string `json:"strategy"`
	// Tips aggregates estimate-vs-actual tipping diagnostics over every
	// Audit Join run served since startup; absent until a walk tips.
	Tips *TipDiagBody `json:"tips,omitempty"`
	// Workers carries the live per-worker health of a distributed epoch:
	// each fleet member's reachability and self-reported stats (triples,
	// epoch, runs, walks, wire bytes, swaps).
	Workers []kgexplore.DistWorkerHealth `json:"workers,omitempty"`
	// DistRetries counts fleet-lifetime stratum re-allocations after worker
	// loss; DistRuns counts distributed runs (distributed epochs only).
	DistRetries int64 `json:"distRetries,omitempty"`
	DistRuns    int64 `json:"distRuns,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	s.mu.Lock()
	swaps, nsess, tips := s.swaps, len(s.sessions), s.tipDiag
	s.mu.Unlock()
	bh := e.be.Health(r.Context())
	resp := HealthResponse{
		Status:      "ok",
		Store:       e.prov,
		Swaps:       swaps,
		Shards:      e.be.NumShards(),
		Sessions:    nsess,
		Estimator:   e.be.EstimatorName(),
		Live:        bh.Live,
		LastError:   bh.LastError,
		Strategy:    s.strategyName(),
		Tips:        tipBody(tips),
		Workers:     bh.Workers,
		DistRetries: bh.DistRetries,
		DistRuns:    bh.DistRuns,
	}
	if bh.Degraded() {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// IngestRequest is one POST /ingest batch: N-Triples lines to add and to
// delete, applied in order (adds first) as a single acknowledged batch.
type IngestRequest struct {
	Add    []string `json:"add"`
	Delete []string `json:"delete"`
}

// IngestResponse acknowledges an applied batch. The ack is durable when the
// live store runs with a WAL: the batch was fsynced before this response.
type IngestResponse struct {
	// Applied counts the operations in the batch (parsed, non-blank lines).
	Applied int `json:"applied"`
	// Triples is the live triple count after the batch.
	Triples int `json:"triples"`
	// Gen is the view generation the batch published.
	Gen uint64 `json:"gen"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	lds, ok := e.be.(*kgexplore.LiveDataset)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("not serving a live store; start kgserver with -live"))
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, err := lds.IngestNTriples(req.Add, req.Delete)
	if err != nil {
		// Parse errors are the client's fault; apply (WAL) errors are ours.
		code := http.StatusBadRequest
		if !errors.As(err, new(*kgexplore.ParseError)) {
			code = http.StatusInternalServerError
		}
		writeErr(w, code, err)
		return
	}
	st := lds.Stats()
	writeJSON(w, http.StatusOK, IngestResponse{Applied: n, Triples: st.LiveTriples, Gen: st.Gen})
}

// TipDiagBody is the JSON form of the tipping diagnostics: how many walks
// tipped, and how the oracle's suffix estimates compared with the exact
// suffix sizes CTJ computed at those decisions.
type TipDiagBody struct {
	Tips        int64   `json:"tips"`
	MeanQError  float64 `json:"meanQError,omitempty"`
	SumEstimate float64 `json:"sumEstimate"`
	SumActual   float64 `json:"sumActual"`
}

func tipBody(d kgexplore.TipDiagnostics) *TipDiagBody {
	if d.Tips == 0 {
		return nil
	}
	return &TipDiagBody{
		Tips:        d.Tips,
		MeanQError:  d.MeanQError(),
		SumEstimate: d.SumEstimate,
		SumActual:   d.SumActual,
	}
}

// observeTips folds one run's tipping diagnostics into the /healthz totals.
func (s *Server) observeTips(d kgexplore.TipDiagnostics) {
	if d.Tips == 0 {
		return
	}
	s.mu.Lock()
	s.tipDiag.Merge(d)
	s.mu.Unlock()
}

// SwapRequest asks the server to replace its dataset from a file. Paths
// ending in ".kgs" load as store snapshots (mmap'ed unless mode is "copy");
// paths ending in ".kgm" load as sharded store sets; anything else goes
// through the parsing loader.
type SwapRequest struct {
	Path string `json:"path"`
	Mode string `json:"mode"` // "", "mmap", "copy" (snapshot paths only)
}

// SwapResponse reports the dataset now being served.
type SwapResponse struct {
	Store Provenance `json:"store"`
	Swaps int        `json:"swaps"`
}

func (s *Server) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Path == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing path"))
		return
	}
	mmap := req.Mode != "copy"
	useEstimator := func(use func(string) error) error {
		if s.Estimator == "" {
			return nil
		}
		return use(s.Estimator)
	}
	var (
		be     kgexplore.Backend
		prov   Provenance
		closer io.Closer
		err    error
	)
	e := s.acquire()
	switch cur := e.be.(type) {
	case *kgexplore.LiveDataset:
		// A live epoch owns an overlay, WAL and compaction lifecycle that a
		// path swap cannot carry over; restart the server to change bases.
		err = fmt.Errorf("live epochs do not hot-swap; restart kgserver -live with the new base")
	case *kgexplore.DistDataset:
		// A distributed epoch swaps the FLEET, not the local process: every
		// worker prepares the new manifest, the swap aborts all-or-nothing
		// on any failure, then all commit and drain. The new local epoch
		// shares the coordinator; draining the old one closes only its
		// local dictionary mapping.
		if !strings.HasSuffix(req.Path, ".kgm") {
			err = fmt.Errorf("distributed epochs swap whole shard sets: path must be a .kgm manifest")
			break
		}
		var dds *kgexplore.DistDataset
		if dds, err = cur.SwapAll(r.Context(), req.Path, mmap); err == nil {
			be, closer, err = dds, dds, useEstimator(dds.UseEstimator)
			prov = Provenance{
				Source:  req.Path,
				Kind:    "distributed",
				Mmap:    mmap,
				Triples: dds.NumTriples(),
				Shards:  dds.NumShards(),
				Workers: len(dds.Workers()),
			}
		}
	default:
		if strings.HasSuffix(req.Path, ".kgm") {
			var sds *kgexplore.ShardedDataset
			if sds, prov, err = LoadShardedDataset(req.Path, mmap); err == nil {
				be, closer, err = sds, sds, useEstimator(sds.UseEstimator)
			}
			break
		}
		var ds *kgexplore.Dataset
		if ds, prov, closer, err = LoadDataset(req.Path, mmap); err == nil {
			be, err = ds, useEstimator(ds.UseEstimator)
		}
	}
	e.release()
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.Swap(be, prov, closer)
	writeJSON(w, http.StatusOK, SwapResponse{Store: prov, Swaps: s.Swaps()})
}

// LoadShardedDataset loads a shard set for serving from its .kgm manifest,
// returning it with the provenance a sharded epoch records.
func LoadShardedDataset(path string, mmap bool) (*kgexplore.ShardedDataset, Provenance, error) {
	start := time.Now()
	sds, err := kgexplore.LoadShardedDataset(path, mmap)
	if err != nil {
		return nil, Provenance{}, err
	}
	prov := Provenance{
		Source:     path,
		Kind:       "sharded",
		Mmap:       mmap,
		Triples:    sds.NumTriples(),
		Shards:     sds.NumShards(),
		LoadMillis: time.Since(start).Milliseconds(),
	}
	return sds, prov, nil
}

// LoadDataset loads a dataset for serving, dispatching on the path: ".kgs"
// store snapshots skip index building entirely (zero-copy mmap when
// mmapSnapshots is set and the platform supports it), everything else goes
// through kgexplore.LoadFile. Returns the provenance and, for snapshot
// loads, the closer that must run once the dataset is drained.
func LoadDataset(path string, mmapSnapshots bool) (*kgexplore.Dataset, Provenance, io.Closer, error) {
	start := time.Now()
	if strings.HasSuffix(path, ".kgs") {
		ss, err := kgexplore.LoadStoreSnapshotFile(path, mmapSnapshots)
		if err != nil {
			return nil, Provenance{}, nil, err
		}
		prov := Provenance{
			Source:     path,
			Kind:       "snapshot",
			Mmap:       ss.Mmap,
			Triples:    ss.Dataset.NumTriples(),
			LoadMillis: time.Since(start).Milliseconds(),
		}
		return ss.Dataset, prov, ss, nil
	}
	ds, err := kgexplore.LoadFile(path)
	if err != nil {
		return nil, Provenance{}, nil, err
	}
	prov := Provenance{
		Source:     path,
		Kind:       "parsed",
		Triples:    ds.NumTriples(),
		LoadMillis: time.Since(start).Milliseconds(),
	}
	return ds, prov, nil, nil
}

// StateResponse describes a session's current bar.
type StateResponse struct {
	Session  string   `json:"session"`
	Kind     string   `json:"kind"`
	Category string   `json:"category"`
	Depth    int      `json:"depth"`
	Ops      []string `json:"ops"`
}

func stateResponse(ds kgexplore.Backend, id string, sess *session) StateResponse {
	var ops []string
	for _, op := range kgexplore.ExpansionsOf(sess.state) {
		ops = append(ops, op.String())
	}
	return StateResponse{
		Session:  id,
		Kind:     sess.state.Kind.String(),
		Category: ds.Dict().Term(sess.state.Category).Value,
		Depth:    sess.state.Depth(),
		Ops:      ops,
	}
}

func (s *Server) handleNewSession(w http.ResponseWriter, _ *http.Request) {
	now := s.now()
	s.mu.Lock()
	s.sweepLocked(now)
	if s.MaxSessions > 0 && len(s.sessions) >= s.MaxSessions {
		s.evictOldestLocked()
	}
	s.nextID++
	id := strconv.FormatInt(s.nextID, 10)
	e := s.cur
	e.refs.Add(1)
	sess := &session{state: e.be.Root(), lastUsed: now}
	s.sessions[id] = sess
	s.mu.Unlock()
	defer e.release()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// acquireSession resolves a session AND pins the serving epoch under one
// lock acquisition. Sessions are cleared on Swap, so a session that resolves
// is always from the same epoch as the returned dataset — exploration states
// never mix dictionary IDs across stores.
func (s *Server) acquireSession(r *http.Request) (*epoch, string, *session, error) {
	id := r.PathValue("id")
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	sess, ok := s.sessions[id]
	if !ok {
		return nil, "", nil, fmt.Errorf("unknown session %q", id)
	}
	sess.lastUsed = now
	e := s.cur
	e.refs.Add(1)
	return e, id, sess, nil
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// ChartRequest asks for an expansion's bar chart.
type ChartRequest struct {
	Op         string `json:"op"`
	Engine     string `json:"engine"`     // aj (default), wj, ctj, lftj, baseline
	BudgetMS   int    `json:"budgetMs"`   // online engines; default 300
	IntervalMS int    `json:"intervalMs"` // stream mode snapshot cadence; default 100
	TopN       int    `json:"topN"`       // 0: all bars
}

// ChartBar is one rendered bar.
type ChartBar struct {
	Category string  `json:"category"`
	Count    float64 `json:"count"`
	CI       float64 `json:"ci,omitempty"`
}

// ChartResponse is a rendered chart. In stream mode each SSE event carries
// one ChartResponse; Walks and Final track the estimator's progress. Cache
// reports CTJ cache effectiveness for aj runs (on the final event in stream
// mode).
type ChartResponse struct {
	Op      string           `json:"op"`
	Engine  string           `json:"engine"`
	Millis  int64            `json:"millis"`
	NumBars int              `json:"numBars"`
	Bars    []ChartBar       `json:"bars"`
	Walks   int64            `json:"walks,omitempty"`
	Final   bool             `json:"final,omitempty"`
	Shards  int              `json:"shards,omitempty"`
	Cache   *ChartCacheStats `json:"cache,omitempty"`
	// Estimator names the cardinality estimator behind the run's planning
	// and tipping decisions; Tips reports its estimate-vs-actual accuracy at
	// this run's tipping decisions (final responses of online engines only).
	Estimator string       `json:"estimator,omitempty"`
	Tips      *TipDiagBody `json:"tips,omitempty"`
	// Strategy names the sampling strategy ("uniform" or "stratified");
	// Strat carries the stratification telemetry of stratified runs (strata
	// count, fallback reason, Neyman reallocations, per-stratum budgets).
	Strategy string                        `json:"strategy,omitempty"`
	Strat    *kgexplore.StratifiedRunStats `json:"strat,omitempty"`
	// Dist reports a distributed run's telemetry: which worker delivered
	// each stratum, re-allocations after worker loss, and wire traffic
	// (final responses of online engines over distributed epochs).
	Dist *DistChartBody `json:"dist,omitempty"`
	// Live identifies the overlay state a live epoch's chart was computed
	// over: the view generation and layer sizes when the run ended (final
	// responses only).
	Live *LiveChartBody `json:"live,omitempty"`
}

// LiveChartBody is the per-request overlay telemetry of a live epoch.
type LiveChartBody struct {
	Gen        uint64 `json:"gen"`
	DeltaAdds  int    `json:"deltaAdds"`
	Tombstones int    `json:"tombstones"`
}

// DistChartBody is the per-request distribution telemetry of one
// coordinator-driven scatter-gather run.
type DistChartBody struct {
	// StratumWorkers[k] is the address that delivered stratum k ("" for
	// empty strata).
	StratumWorkers []string `json:"stratumWorkers"`
	// Retries counts worker-loss re-allocations within this run;
	// Reallocations details each one.
	Retries       int                         `json:"retries,omitempty"`
	Reallocations []kgexplore.DistRetryRecord `json:"reallocations,omitempty"`
	WireInBytes   int64                       `json:"wireInBytes"`
	WireOutBytes  int64                       `json:"wireOutBytes"`
}

func distBody(stats kgexplore.DistRunStats) *DistChartBody {
	return &DistChartBody{
		StratumWorkers: stats.StratumWorkers,
		Retries:        stats.Retries,
		Reallocations:  stats.Reallocations,
		WireInBytes:    stats.WireInBytes,
		WireOutBytes:   stats.WireOutBytes,
	}
}

// CacheStatsBody mirrors ctj.CacheStats for the JSON payload.
type CacheStatsBody struct {
	CountHits        int64 `json:"countHits"`
	CountMisses      int64 `json:"countMisses"`
	AggHits          int64 `json:"aggHits"`
	AggMisses        int64 `json:"aggMisses"`
	ExistHits        int64 `json:"existHits"`
	ExistMisses      int64 `json:"existMisses"`
	ProbHits         int64 `json:"probHits"`
	ProbMisses       int64 `json:"probMisses"`
	ProbMaterialized bool  `json:"probMaterialized,omitempty"`
}

// ChartCacheStats makes CTJ cache effectiveness observable per request: Run
// is what this request's runner saw; Shared is the merged cross-request view
// of the warm-start cache, when one was used.
type ChartCacheStats struct {
	Run    CacheStatsBody  `json:"run"`
	Shared *CacheStatsBody `json:"shared,omitempty"`
}

func cacheBody(cs kgexplore.CTJCacheStats) CacheStatsBody {
	return CacheStatsBody{
		CountHits:        cs.CountHits,
		CountMisses:      cs.CountMisses,
		AggHits:          cs.AggHits,
		AggMisses:        cs.AggMisses,
		ExistHits:        cs.ExistHits,
		ExistMisses:      cs.ExistMisses,
		ProbHits:         cs.ProbHits,
		ProbMisses:       cs.ProbMisses,
		ProbMaterialized: cs.ProbMaterialized,
	}
}

func parseOp(name string) (kgexplore.ExploreOp, error) {
	switch name {
	case "subclass":
		return kgexplore.OpSubclass, nil
	case "out-property":
		return kgexplore.OpOutProp, nil
	case "in-property":
		return kgexplore.OpInProp, nil
	case "object":
		return kgexplore.OpObject, nil
	case "subject":
		return kgexplore.OpSubject, nil
	default:
		return 0, fmt.Errorf("unknown op %q", name)
	}
}

func (s *Server) handleChart(w http.ResponseWriter, r *http.Request) {
	e, _, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	var req ChartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := sess.state.Query(op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	pl, err := e.be.Compile(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := s.parseEngine(req.Engine)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t := kgexplore.Target{Plan: pl}
	if r.URL.Query().Get("stream") == "1" {
		if spec.Exact {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("engine %q does not stream; use aj or wj", req.Engine))
			return
		}
		s.streamChart(w, r, e, t, spec, req)
		return
	}
	s.answer(w, r, e, req.Op, req.Engine, t, spec, req.BudgetMS, req.TopN)
}

// parseEngine maps an engine name onto an Answer spec: ctj, lftj and
// baseline answer exactly; aj (the default) runs Audit Join at the default
// tipping threshold and wj never tips. Online runs use the server's
// sampling strategy, a fresh seed and the warm-start caches of their plan.
func (s *Server) parseEngine(name string) (kgexplore.AnswerSpec, error) {
	spec := kgexplore.AnswerSpec{
		Threshold:   kgexplore.DefaultTippingThreshold,
		Seed:        time.Now().UnixNano(),
		Stratify:    s.stratified(),
		SharedCache: s.sharedCacheFor,
		ShardCaches: s.shardCachesFor,
	}
	switch name {
	case "aj", "":
	case "wj":
		spec.Threshold = -1
	case "ctj":
		spec.Exact, spec.Engine = true, kgexplore.EngineCTJ
	case "lftj":
		spec.Exact, spec.Engine = true, kgexplore.EngineLFTJ
	case "baseline":
		spec.Exact, spec.Engine = true, kgexplore.EngineBaseline
	default:
		return spec, fmt.Errorf("unknown engine %q", name)
	}
	return spec, nil
}

func engineName(e string) string {
	if e == "" {
		return "aj"
	}
	return e
}

// answer runs one request to completion and writes its chart.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, e *epoch, op, engine string, t kgexplore.Target, spec kgexplore.AnswerSpec, budgetMS, topN int) {
	start := time.Now()
	res, st, err := e.be.Answer(r.Context(), t, spec, kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.observeTips(st.Tips)
	resp := s.chartResponse(e, op, engineName(engine), res, &st, topN)
	resp.Millis = time.Since(start).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
}

// chartResponse renders a result as sorted, truncated bars, with the run's
// telemetry when st is non-nil (it is nil on progress events of a stream).
func (s *Server) chartResponse(e *epoch, op, engine string, res kgexplore.EstimateResult, st *kgexplore.RunStats, topN int) ChartResponse {
	resp := ChartResponse{
		Op:        op,
		Engine:    engine,
		Walks:     res.Walks,
		Shards:    e.be.NumShards(),
		Estimator: e.be.EstimatorName(),
		Strategy:  s.strategyName(),
	}
	if st != nil {
		if st.Cache != nil {
			resp.Cache = &ChartCacheStats{Run: cacheBody(*st.Cache)}
			if st.SharedCache != nil {
				b := cacheBody(*st.SharedCache)
				resp.Cache.Shared = &b
			}
		}
		resp.Tips = tipBody(st.Tips)
		resp.Strat = st.Strat
		if st.Dist != nil {
			resp.Dist = distBody(*st.Dist)
		}
		if st.Live != nil {
			resp.Live = &LiveChartBody{Gen: st.Live.Gen, DeltaAdds: st.Live.DeltaAdds, Tombstones: st.Live.Tombstones}
		}
	}
	bars := e.be.BarsOf(res.Estimates, res.CI)
	resp.NumBars = len(bars)
	if topN > 0 && len(bars) > topN {
		bars = bars[:topN]
	}
	for _, b := range bars {
		label := b.Category.Value
		if label == "" && op == "sparql" {
			label = "(all)"
		}
		resp.Bars = append(resp.Bars, ChartBar{Category: label, Count: b.Count, CI: b.CI})
	}
	return resp
}

// clampBudget applies the default and the server-wide cap.
func (s *Server) clampBudget(budgetMS int) time.Duration {
	budget := time.Duration(budgetMS) * time.Millisecond
	if budget <= 0 {
		budget = 300 * time.Millisecond
	}
	if budget > s.MaxBudget {
		budget = s.MaxBudget
	}
	return budget
}

// stratified reports whether the server runs the stratified sampling
// strategy; strategyName is the label surfaced in charts and /healthz.
func (s *Server) stratified() bool { return s.Strategy == "stratified" }

func (s *Server) strategyName() string {
	if s.Strategy == "" {
		return "uniform"
	}
	return s.Strategy
}

// streamChart answers a `?stream=1` chart request with Server-Sent Events:
// one ChartResponse per snapshot interval, each strictly further along than
// the last, and a Final event carrying the run's telemetry when the budget
// elapses. Closing the connection cancels the run through the request
// context.
func (s *Server) streamChart(w http.ResponseWriter, r *http.Request, e *epoch, t kgexplore.Target, spec kgexplore.AnswerSpec, req ChartRequest) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	engine := engineName(req.Engine)
	send := func(resp ChartResponse) bool {
		data, err := json.Marshal(resp)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	start := time.Now()
	budget := s.clampBudget(req.BudgetMS)
	xopts := kgexplore.DriveOptions{
		Budget:   budget,
		Interval: interval,
		Batch:    128,
		OnSnapshot: func(p kgexplore.DriveProgress) bool {
			// The final event is sent once Answer returns, with the run's
			// telemetry. Progress within one interval of the deadline is
			// skipped, so the final event always reports more walks.
			if p.Final || budget-p.Elapsed < interval {
				return true
			}
			resp := s.chartResponse(e, req.Op, engine, p.Snapshot, nil, req.TopN)
			resp.Millis = p.Elapsed.Milliseconds()
			resp.Walks = p.Walks
			return send(resp)
		},
	}
	res, st, err := e.be.Answer(r.Context(), t, spec, xopts)
	if err != nil {
		return
	}
	s.observeTips(st.Tips)
	resp := s.chartResponse(e, req.Op, engine, res, &st, req.TopN)
	resp.Millis = time.Since(start).Milliseconds()
	resp.Final = true
	send(resp)
}

// SelectRequest clicks a bar in an expansion chart.
type SelectRequest struct {
	Op       string `json:"op"`
	Category string `json:"category"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	var req SelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	catID, ok := e.be.Dict().LookupIRI(req.Category)
	if !ok {
		// Categories may be literals in principle; try a literal too.
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown category %q", req.Category))
		return
	}
	next, err := sess.state.Select(op, catID)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	sess.stack = append(sess.stack, sess.state)
	sess.state = next
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	s.mu.Lock()
	if n := len(sess.stack); n > 0 {
		sess.state = sess.stack[n-1]
		sess.stack = sess.stack[:n-1]
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// SPARQLRequest runs a Fig. 4 fragment query directly.
type SPARQLRequest struct {
	Query    string `json:"query"`
	Engine   string `json:"engine"`
	BudgetMS int    `json:"budgetMs"`
	TopN     int    `json:"topN"`
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	var req SPARQLRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	parsed, err := e.be.ParseQuery(req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := s.parseEngine(req.Engine)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var t kgexplore.Target
	if parsed.IsUnion() {
		t.Union = parsed.Union()
	} else if t.Plan, err = e.be.Compile(parsed.Query); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, e, "sparql", req.Engine, t, spec, req.BudgetMS, req.TopN)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(indexHTML))
}

// indexHTML is a dependency-free single-page UI over the JSON API: it shows
// the current bar, its legal expansions, and renders chart responses as CSS
// bar charts; clicking a bar selects it and descends.
var indexHTML = strings.TrimSpace(`
<!doctype html>
<meta charset="utf-8">
<title>kgexplore</title>
<style>
body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}
#state{margin:.5rem 0;color:#333}
.bar{display:flex;align-items:center;margin:2px 0;cursor:pointer}
.bar .label{width:22rem;overflow:hidden;text-overflow:ellipsis;white-space:nowrap;font-size:.85rem}
.bar .fill{background:#4a7;height:1rem;margin-right:.5rem}
.bar .n{font-size:.8rem;color:#555}
button{margin-right:.4rem}
</style>
<h1>kgexplore</h1>
<div id="state"></div>
<div id="ops"></div>
<div id="chart"></div>
<script>
let sid=null,lastOp=null;
async function j(url,body){const r=await fetch(url,{method:body?'POST':'GET',body:body?JSON.stringify(body):null});return r.json()}
async function start(){const s=await j('/api/session',{});render(s)}
function render(s){sid=s.session;
 document.getElementById('state').textContent=s.kind+' bar: '+s.category+' (depth '+s.depth+')';
 const ops=document.getElementById('ops');ops.innerHTML='';
 for(const op of s.ops){const b=document.createElement('button');b.textContent=op;
  b.onclick=()=>chart(op);ops.appendChild(b)}
 const back=document.createElement('button');back.textContent='back';
 back.onclick=async()=>{render(await j('/api/session/'+sid+'/back',{}))};ops.appendChild(back)}
async function chart(op){lastOp=op;
 const c=await j('/api/session/'+sid+'/chart',{op:op,topN:25});
 const div=document.getElementById('chart');div.innerHTML='<p>'+c.numBars+' bars ('+c.engine+', '+c.millis+'ms)</p>';
 const max=Math.max(...c.bars.map(b=>b.count),1);
 for(const b of c.bars){const row=document.createElement('div');row.className='bar';
  row.innerHTML='<span class="label">'+b.category+'</span><span class="fill" style="width:'+(300*b.count/max)+'px"></span><span class="n">'+Math.round(b.count)+(b.ci?' ±'+b.ci.toFixed(1):'')+'</span>';
  row.onclick=async()=>{const s=await j('/api/session/'+sid+'/select',{op:lastOp,category:b.category});
   if(!s.error){render(s);document.getElementById('chart').innerHTML=''}};
  div.appendChild(row)}}
start();
</script>
`)
