package ctj

import (
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// EnumerateSuffix enumerates all completions of steps i+1..n-1 given the
// bindings of steps 0..i, invoking cb with the full bindings and the walk
// probability of the completion, prob = ∏_{j>i} 1/d_j, where d_j is the size
// of the candidate set the random walk would see at step j. Audit Join calls
// this at the tipping point, where the suffix is small by construction, so
// the enumeration is uncached.
func (e *Evaluator) EnumerateSuffix(i int, b query.Bindings, cb func(b query.Bindings, prob float64)) {
	var rec func(j int, prob float64)
	rec = func(j int, prob float64) {
		if j == len(e.pl.Steps) {
			cb(b, prob)
			return
		}
		st := &e.pl.Steps[j]
		sp, ok := st.ResolveSpan(e.store, b)
		if !ok {
			return
		}
		if st.Kind == query.AccessMembership {
			rec(j+1, prob) // d_j = 1
			return
		}
		p := prob / float64(sp.Len())
		ts := e.store.Triples(st.Order)
		for t := sp.Lo; t < sp.Hi; t++ {
			st.Bind(ts[t], b)
			// Filter-failing completions are invisible to the walk estimator
			// (the walk would have been rejected), so they contribute neither
			// a completion nor probability mass.
			if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.store, b) {
				continue
			}
			rec(j+1, p)
		}
		st.Unbind(b)
	}
	rec(i+1, 1)
}

// SuffixAgg returns the completions of steps i+1..n-1 aggregated per
// (group value A, counted value B): the completion count N and the walk
// probability mass P = Σ ∏_{j>i} 1/d_j. Results are cached per boundary
// interface (extended with the already-bound values of Alpha and Beta, which
// determine the aggregation even when the interface does not mention them).
// This cache is what lets Audit Join reuse a prior exact computation when a
// later walk reaches the same prefix interface (paper §IV-D).
func (e *Evaluator) SuffixAgg(i int, b query.Bindings) []SuffixGroup {
	alpha, beta := e.pl.Query.Alpha, e.pl.Query.Beta
	var aBound, bBound rdf.ID = rdf.NoID, rdf.NoID
	if alpha != query.NoVar && b[alpha] != rdf.NoID {
		aBound = b[alpha]
	}
	if b[beta] != rdf.NoID {
		bBound = b[beta]
	}
	// The key extends the interface with the bound α and β.
	k, ok := e.key(i+1, b)
	n := len(e.pl.Iface(i + 1))
	if !ok || n+2 > maxIface {
		return e.computeSuffixAgg(i, b)
	}
	k.vals[n], k.vals[n+1] = aBound, bBound
	if e.shared != nil {
		return e.sharedSuffixAgg(k, i, b)
	}
	if agg, ok := e.aggCache[k]; ok {
		e.stats.AggHits++
		return agg
	}
	e.stats.AggMisses++
	agg := e.computeSuffixAgg(i, b)
	e.aggCache[k] = agg
	return agg
}

// computeSuffixAgg is the uncached enumeration-and-aggregation body of
// SuffixAgg. The returned slice is treated as immutable once cached (shared
// caches publish it across goroutines).
func (e *Evaluator) computeSuffixAgg(i int, b query.Bindings) []SuffixGroup {
	alpha := e.pl.Query.Alpha
	beta := e.pl.Query.Beta

	type akey struct{ a, b rdf.ID }
	accum := make(map[akey]*SuffixGroup)
	order := make([]akey, 0, 4)
	e.EnumerateSuffix(i, b, func(bind query.Bindings, prob float64) {
		a := GlobalGroup
		if alpha != query.NoVar {
			a = bind[alpha]
		}
		key := akey{a, bind[beta]}
		g := accum[key]
		if g == nil {
			g = &SuffixGroup{A: a, B: bind[beta]}
			accum[key] = g
			order = append(order, key)
		}
		g.N++
		g.P += prob
	})
	agg := make([]SuffixGroup, 0, len(order))
	for _, key := range order {
		agg = append(agg, *accum[key])
	}
	return agg
}
