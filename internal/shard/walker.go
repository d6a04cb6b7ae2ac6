package shard

import (
	"errors"
	"fmt"

	"kgexplore/internal/card"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/walk"
	"kgexplore/internal/wj"
)

// ErrDistinctNotOwned reports a COUNT(DISTINCT) plan whose distinct
// variable is not owned by the partition key; per-stratum estimation would
// double-count values across shards, so callers must use Set.ExactCtx
// (which RunScatter does automatically).
var ErrDistinctNotOwned = errors.New(
	"shard: COUNT(DISTINCT) with a distinct variable the partition key does not own; fall back to Set.Exact")

// Owned reports whether COUNT(DISTINCT) over this plan can be estimated
// stratum-locally. The condition is ownership of the distinct variable by
// the partition key: β is the SUBJECT of the root pattern, so every
// distinct (group, β-value) pair is witnessed only by root triples in the
// shard that β's value hashes to, and per-stratum distinct estimates sum
// without cross-shard double counting. The subject-restricted root access
// must also be servable by the four index orders (it is not when the root
// has a constant object but a variable predicate), because the estimator
// needs the EXACT per-value root count n_v, not an estimate.
func Owned(pl *query.Plan) bool {
	q := pl.Query
	if !q.Distinct {
		return false
	}
	st0 := &pl.Steps[0]
	s := st0.Pattern.S
	if !s.IsVar() || s.Var != q.Beta {
		return false
	}
	mask := st0.Bound
	mask[index.S] = true
	_, _, err := query.AccessFor(mask)
	return err == nil
}

// Cache is a stratum's suffix cache, shared by the walker pool of one shard
// and kept across requests for warm starts. Entries must not be shared
// between strata: the owned-distinct memo holds stratum-local root counts.
type Cache = walk.Cache

// NewCache returns an empty stratum cache.
func NewCache() *Cache { return walk.NewCache() }

// WalkerOptions configure one stratum walker.
type WalkerOptions struct {
	// Threshold is the Audit Join tipping point (walk.Options' rule).
	Threshold float64
	// Seed seeds the walker's private random source.
	Seed int64
	// Cache is the stratum's shared suffix cache; nil creates a private
	// one. All walkers of one stratum's pool should share a Cache.
	Cache *Cache
	// Estimator drives the tipping oracle; nil selects span statistics over
	// the whole set.
	Estimator card.Estimator
	// Root, when non-nil, restricts this walker to one SEMANTIC sub-stratum
	// of the shard's root span (index.StratifyRoots over the shard store),
	// nesting characteristic-set strata inside the shard strata. The
	// (shard × bucket) leaves stay disjoint, so their accumulators
	// flat-merge through wj.MergeStratified.
	Root *index.RootStratum
}

// NewWalker creates the walker of ONE stratum of a sharded set: stratum k
// covers exactly the join paths whose root triple lives in shard k. Its
// walks root in shard k's part of the root step and resolve every later
// step over all shards through the set's Source, so the stratum's
// Horvitz–Thompson estimate is unbiased for the stratum total. Snapshot
// returns that stratum estimate; global results merge the stratum
// accumulators with wj.MergeStratified. Distinct plans run the owned
// estimator (see Owned) and fail with ErrDistinctNotOwned otherwise.
func NewWalker(set *Set, pl *query.Plan, stratum int, opts WalkerOptions) (*walk.Walker, error) {
	if pl.Query.Distinct && !Owned(pl) {
		return nil, ErrDistinctNotOwned
	}
	if set.stores[stratum] == nil {
		// Root sampling and the owned-distinct n_v lookup need direct store
		// access; later steps may be remote.
		return nil, fmt.Errorf("shard: stratum %d is not local to this process", stratum)
	}
	src, err := set.Source(pl)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	wo := walk.Options{
		Threshold: opts.Threshold,
		Seed:      opts.Seed,
		Estimator: setEstimator(set, opts.Estimator),
		Cache:     cache,
		Part:      stratum,
		Root:      opts.Root,
	}
	if pl.Query.Distinct {
		wo.Owned = newOwned(set, src, pl, stratum, cache).groups
	}
	return walk.New(src, pl, wo)
}

// setEstimator resolves the run's estimator: the caller's choice, or span
// statistics over the set's in-process stores by default. The disjoint
// partition makes set-level sums exact for cardinalities and a safe upper
// bound for ndv; hybrid sets see only their local shards' statistics, so
// tipping estimates skew low. Both only make walks tip to the exact finish
// earlier — a performance knob, never a bias.
func setEstimator(set *Set, est card.Estimator) card.Estimator {
	if est != nil {
		return est
	}
	return card.NewSpanStats(set.localStores()...)
}

// owned is the owned-DISTINCT root policy of one stratum: for a root triple
// with subject v it returns the distinct groups reachable from v (over every
// root triple with that subject in the stratum and every cross-shard
// completion) and the exact count n_v of those root triples, memoized per v
// in the stratum cache. The walker credits rootLen/n_v to each group: each
// subject is drawn with probability n_v/rootLen, so the sum over walks
// divided by N is unbiased for the stratum's per-group distinct count.
type owned struct {
	store *index.Store
	src   walk.Source
	pl    *query.Plan
	enum  *walk.Enumerator
	cache *walk.Cache
	// own is the root step with its subject bound too: its candidates are
	// the root triples of one subject.
	own query.Step
	// b is the enumeration scratch binding buffer.
	b query.Bindings
}

func newOwned(set *Set, src walk.Source, pl *query.Plan, stratum int, cache *walk.Cache) *owned {
	own := pl.Steps[0]
	own.Bound[index.S] = true
	own.Kind, own.Order, _ = query.AccessFor(own.Bound) // Owned checked it is servable
	levels := own.Order.Levels()
	own.Key0, own.Key1 = own.Pattern.Atom(levels[0]), own.Pattern.Atom(levels[1])
	return &owned{
		store: set.stores[stratum],
		src:   src,
		pl:    pl,
		enum:  walk.NewEnumerator(src, pl),
		cache: cache,
		own:   own,
		b:     pl.NewBindings(),
	}
}

func (o *owned) groups(t rdf.Triple) ([]rdf.ID, int) {
	if groups, n, ok := o.cache.Root(t.S); ok {
		return groups, n
	}
	groups, n := o.compute(t.S)
	return o.cache.PutRoot(t.S, groups, n)
}

// compute enumerates every root triple with subject v in the stratum store
// — exactly n_v of them: Owned rejected the one access the orders cannot
// serve — and every completion of each through the set.
func (o *owned) compute(v rdf.ID) ([]rdf.ID, int) {
	st0 := &o.pl.Steps[0]
	q := o.pl.Query
	b := o.b
	b.Reset()
	b[q.Beta] = v // β is the root subject
	sp, ok := o.own.ResolveSpan(o.store, b)
	if !ok {
		return nil, 0
	}
	seen := make(map[rdf.ID]struct{})
	visit := func() error {
		a := wj.GlobalGroup
		if q.Alpha != query.NoVar {
			a = b[q.Alpha]
		}
		seen[a] = struct{}{}
		return nil
	}
	// Root-anchored filters gate each enumeration; deeper anchors are
	// enforced inside the enumeration.
	extend := func(t rdf.Triple) {
		st0.Bind(t, b)
		if len(st0.Filters) == 0 || o.pl.StepFiltersOK(0, o.src, b) {
			_ = o.enum.Run(1, b, visit)
		}
	}
	n := 1
	if o.own.Kind == query.AccessMembership {
		extend(o.own.BoundTriple(b))
	} else {
		n = sp.Len()
		for i := 0; i < n; i++ {
			extend(o.store.At(o.own.Order, sp, i))
		}
	}
	st0.Unbind(b)
	groups := make([]rdf.ID, 0, len(seen))
	for a := range seen {
		groups = append(groups, a)
	}
	return groups, n
}
