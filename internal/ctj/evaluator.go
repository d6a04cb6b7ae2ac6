// Package ctj implements Cached Trie Join (Kalinsky et al., EDBT 2017) for
// the exploration-query fragment: the backtracking trie join of LFTJ
// augmented with caches guided by the query's tree decomposition, which for
// the fragment's acyclic queries is the walk path itself (paper §IV-B).
//
// The cache memoizes, for every step boundary, aggregates of the suffix join
// keyed by the "interface": the values of the variables that are bound
// before the boundary and still used after it. Whenever the same interface
// values recur — LFTJ would recompute the whole subtree — CTJ serves the
// aggregate from the cache (Example IV.1 of the paper).
//
// Besides standalone exact evaluation, the package exposes the primitives
// Audit Join builds on: cached suffix counts, suffix enumeration with walk
// probabilities, and the path-probability sums Pr(b) and Pr(a,b) of the
// unbiased distinct estimator.
package ctj

import (
	"kgexplore/internal/card"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// GlobalGroup is the map key used for ungrouped queries.
const GlobalGroup = rdf.NoID

// maxIface bounds the number of values a cache key can carry: the
// boundary's interface variables (query.Plan.Iface) plus any extras.
// Exploration queries are short, so eight is generous; a boundary whose key
// does not fit is computed uncached rather than refused.
const maxIface = 8

// ckey identifies a cached suffix aggregate: the boundary step plus the
// values of the boundary's key variables (padded with NoID).
type ckey struct {
	step int8
	vals [maxIface]rdf.ID
}

// SuffixGroup is one aggregated completion class of a suffix join: the group
// value A, the counted value B, the number N of completions with that (A,B),
// and P, the sum over those completions of the walk probabilities
// ∏_{j>i} 1/d_j. B and P are only meaningful for distinct-mode consumers.
type SuffixGroup struct {
	A, B rdf.ID
	N    int64
	P    float64
}

// CacheStats reports cache effectiveness, used by the CTJ-vs-LFTJ ablation.
type CacheStats struct {
	CountHits, CountMisses int64
	AggHits, AggMisses     int64
	ExistHits, ExistMisses int64
	ProbHits, ProbMisses   int64
	// ProbMaterialized is true when all Pr(a,b) were computed in one
	// full-join pass instead of lazily per pair.
	ProbMaterialized bool
}

// Evaluator is a CTJ evaluation session over one plan. It owns the caches;
// reusing an Evaluator across many operations (as Audit Join does across
// walks) is what makes the cached prefixes pay off. Not safe for concurrent
// use.
type Evaluator struct {
	store *index.Store
	pl    *query.Plan

	countCache map[ckey]int64
	aggCache   map[ckey][]SuffixGroup
	existCache map[ckey]bool
	// probCache maps probKey(a, b) -> Pr(a,b); b-only entries live under
	// probKey(NoID, b). The packed uint64 key hits the runtime's fast64
	// map path, which the [2]rdf.ID struct key does not.
	probCache map[uint64]float64

	// probsMaterialized: probCache holds every reachable pair already.
	// probDecided: the materialize-or-lazy decision has been made.
	probsMaterialized bool
	probDecided       bool

	// shared, when non-nil, replaces the private maps above with the
	// concurrency-safe SharedCache: all cache reads and writes route through
	// it, so several evaluators (one per goroutine) populate one cache.
	shared *SharedCache

	// est is the cardinality estimator behind the session's planning
	// decisions (the probability materialize-or-lazy choice); lazily
	// defaulted to span statistics.
	est query.Estimator

	stats CacheStats
}

// SetEstimator routes this session's planning decisions through the given
// cardinality estimator (see internal/card). A nil estimator is ignored;
// the default is span statistics.
func (e *Evaluator) SetEstimator(est query.Estimator) {
	if est != nil {
		e.est = est
	}
}

// estimator returns the session's estimator, defaulting lazily.
func (e *Evaluator) estimator() query.Estimator {
	if e.est == nil {
		e.est = card.NewSpanStats(e.store)
	}
	return e.est
}

// New creates an evaluation session for the plan.
func New(store *index.Store, pl *query.Plan) *Evaluator {
	return &Evaluator{
		store:      store,
		pl:         pl,
		countCache: make(map[ckey]int64),
		aggCache:   make(map[ckey][]SuffixGroup),
		existCache: make(map[ckey]bool),
		probCache:  make(map[uint64]float64),
	}
}

// NewShared creates an evaluation session that reads and writes the given
// shared cache instead of private maps. The evaluator itself is still
// single-threaded — create one per goroutine — but any number of evaluators
// over plans with the same Signature may share one cache concurrently.
// Binding a cache to a structurally different plan panics.
func NewShared(store *index.Store, pl *query.Plan, sc *SharedCache) *Evaluator {
	sc.Bind(pl)
	e := New(store, pl)
	e.shared = sc
	return e
}

// Stats returns a snapshot of this session's cache statistics: the hits and
// misses observed by this evaluator, whether the cache is private or shared.
// For the merged view across all evaluators of a shared cache, use
// SharedCache.Stats.
func (e *Evaluator) Stats() CacheStats { return e.stats }

// Shared returns the shared cache the session writes to, or nil when the
// session uses private single-threaded maps.
func (e *Evaluator) Shared() *SharedCache { return e.shared }

// Plan returns the plan this session evaluates.
func (e *Evaluator) Plan() *query.Plan { return e.pl }

// key builds the cache key for boundary step under bindings b: the
// boundary's interface values, padded with NoID. ok is false when they
// overflow the fixed key; callers then compute uncached.
func (e *Evaluator) key(step int, b query.Bindings) (k ckey, ok bool) {
	iface := e.pl.Iface(step)
	if len(iface) > maxIface {
		return k, false
	}
	k.step = int8(step)
	for i, v := range iface {
		k.vals[i] = b[v]
	}
	for i := len(iface); i < maxIface; i++ {
		k.vals[i] = rdf.NoID
	}
	return k, true
}

// probKey packs a (group, counted) value pair into the probCache key.
func probKey(a, b rdf.ID) uint64 { return uint64(a)<<32 | uint64(b) }

// stepWidth returns the walk candidate-set size d for a resolved step: the
// span length, or 1 for a satisfied membership step.
func stepWidth(st *query.Step, sp index.Span) int {
	if st.Kind == query.AccessMembership {
		return 1
	}
	return sp.Len()
}

// SuffixCount returns the exact number of completions of steps i+1..n-1
// given the bindings of steps 0..i — the |Γ_δ| of the paper's base Audit
// Join estimator — with memoization at every deeper boundary.
func (e *Evaluator) SuffixCount(i int, b query.Bindings) int64 {
	return e.count(i+1, b)
}

func (e *Evaluator) count(j int, b query.Bindings) int64 {
	if j == len(e.pl.Steps) {
		return 1
	}
	k, ok := e.key(j, b)
	if !ok {
		return e.computeCount(j, b)
	}
	if e.shared != nil {
		return e.sharedCount(k, j, b)
	}
	if n, ok := e.countCache[k]; ok {
		e.stats.CountHits++
		return n
	}
	e.stats.CountMisses++
	n := e.computeCount(j, b)
	e.countCache[k] = n
	return n
}

// computeCount is the uncached body of the count recursion; deeper boundaries
// re-enter count and hence the cache.
func (e *Evaluator) computeCount(j int, b query.Bindings) int64 {
	st := &e.pl.Steps[j]
	sp, ok := st.ResolveSpan(e.store, b)
	var n int64
	if ok {
		if st.Kind == query.AccessMembership {
			n = e.count(j+1, b)
		} else {
			ts := e.store.Triples(st.Order)
			for t := sp.Lo; t < sp.Hi; t++ {
				st.Bind(ts[t], b)
				if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.store, b) {
					continue
				}
				n += e.count(j+1, b)
			}
			st.Unbind(b)
		}
	}
	return n
}

// Exists reports whether steps j..n-1 have at least one completion under the
// bindings, with memoized short-circuiting.
func (e *Evaluator) Exists(j int, b query.Bindings) bool {
	if j == len(e.pl.Steps) {
		return true
	}
	k, ok := e.key(j, b)
	if !ok {
		return e.computeExists(j, b)
	}
	if e.shared != nil {
		return e.sharedExists(k, j, b)
	}
	if v, ok := e.existCache[k]; ok {
		e.stats.ExistHits++
		return v
	}
	e.stats.ExistMisses++
	found := e.computeExists(j, b)
	e.existCache[k] = found
	return found
}

// computeExists is the uncached body of the existence recursion.
func (e *Evaluator) computeExists(j int, b query.Bindings) bool {
	st := &e.pl.Steps[j]
	sp, ok := st.ResolveSpan(e.store, b)
	found := false
	if ok {
		if st.Kind == query.AccessMembership {
			found = e.Exists(j+1, b)
		} else {
			ts := e.store.Triples(st.Order)
			for t := sp.Lo; t < sp.Hi && !found; t++ {
				st.Bind(ts[t], b)
				if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.store, b) {
					continue
				}
				found = e.Exists(j+1, b)
			}
			st.Unbind(b)
		}
	}
	return found
}
