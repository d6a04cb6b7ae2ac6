package walk

import (
	"errors"
	"math/rand"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// ErrDistinct reports a COUNT(DISTINCT) plan handed to a walker without a
// root-only policy: the per-walk weights below estimate path counts, and
// distinct values reached by several paths would be counted once per path.
var ErrDistinct = errors.New("walk: COUNT(DISTINCT) needs a root-only policy; use the exact path")

// AllParts roots walks in every part of the root step's candidate set.
const AllParts = -1

// Options configure one walker.
type Options struct {
	// Threshold is the Audit Join tipping point, core.Options' rule:
	// estimated suffix sizes at or below it switch the walk to the exact
	// finish. Negative never tips (pure Wander Join); 0 tips only on empty
	// suffixes; +Inf always tips.
	Threshold float64
	// Seed seeds the walker's private random source.
	Seed int64
	// Estimator drives the tipping oracle. Required.
	Estimator card.Estimator
	// Cache is the suffix cache; nil creates a private one.
	Cache *Cache
	// Part roots every walk in the root candidates of one part (the Src of a
	// Part): the stratum of a partitioned store, whose walks cover exactly
	// the join paths rooted there. AllParts roots in the whole candidate set.
	Part int
	// Root, when non-nil, narrows the root further to a semantic sub-stratum
	// of Part's root span (index.StratifyRoots over that part's store):
	// roots sample uniformly from it and the inverse probability uses its
	// size. It needs a Part.
	Root *index.RootStratum
	// Owned, when non-nil, replaces the walk beyond the root by a root-only
	// policy: for the drawn root triple it returns the groups to credit and
	// the number n of root candidates sharing the root's key, and the walker
	// credits rootLen/n to each group. A root whose key is drawn with
	// probability n/rootLen then contributes exactly once per group in
	// expectation — the sharded owned-DISTINCT estimator.
	Owned func(root rdf.Triple) (groups []rdf.ID, n int)
}

// Walker runs Audit Join walks over a Source: the root samples uniformly
// from the root candidates, every later step samples uniformly from the
// union of its parts, and a walk whose estimated suffix is at most the
// threshold tips to an exact finish by enumeration, memoized in the suffix
// cache. A walk's weight is ∏ d over its sampled steps, so its per-group
// contribution is unbiased for the total of the walker's root population.
//
// A Walker is an exec.Stepper; it is not safe for concurrent use — create
// one per goroutine and share the Cache.
type Walker struct {
	src    Source
	pl     *query.Plan
	enum   *Enumerator
	oracle card.Suffix
	cache  *Cache
	thresh float64
	rng    *rand.Rand
	acc    *wj.Acc
	owned  func(rdf.Triple) ([]rdf.ID, int)

	// b is the walk binding buffer, parts the reusable gather buffer.
	b     query.Bindings
	parts []Part

	rootParts []Part
	rootLen   int
	root      *index.RootStratum

	perGroup   map[rdf.ID]float64
	perGroupND map[rdf.ID]numDen

	tipped int64
	diag   core.TipDiag
}

type numDen struct{ num, den float64 }

// New creates a walker over src, which must be opened for pl.
func New(src Source, pl *query.Plan, opts Options) (*Walker, error) {
	if pl.Query.Distinct && opts.Owned == nil {
		return nil, ErrDistinct
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	w := &Walker{
		src:        src,
		pl:         pl,
		enum:       NewEnumerator(src, pl),
		cache:      cache,
		thresh:     opts.Threshold,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		acc:        wj.NewAcc(),
		owned:      opts.Owned,
		b:          pl.NewBindings(),
		perGroup:   make(map[rdf.ID]float64),
		perGroupND: make(map[rdf.ID]numDen),
	}
	w.oracle = opts.Estimator.NewSuffix(pl, Widths(src))

	// The root step has no join variables, so its candidates are constant.
	parts, d := src.Resolve(0, w.b, nil)
	if opts.Part != AllParts {
		kept := parts[:0]
		d = 0
		for _, p := range parts {
			if p.Src == opts.Part {
				kept = append(kept, p)
				d += p.Span.Len()
			}
		}
		parts = kept
		if len(kept) > 0 && pl.Steps[0].Kind == query.AccessMembership {
			d = 1
		}
	}
	w.rootParts, w.rootLen = parts, d
	if opts.Root != nil {
		if len(parts) != 1 {
			return nil, errors.New("walk: a root stratum needs exactly one root part")
		}
		w.root, w.rootLen = opts.Root, opts.Root.Total
	}
	return w, nil
}

// Widths adapts a Source to card.SpanResolver: the tipping oracle's
// prefix-adjacent widths are the exact candidate counts d.
func Widths(src Source) card.SpanResolver { return &widths{src: src} }

type widths struct {
	src Source
	buf []Part
}

func (ws *widths) ResolveWidth(step int, b query.Bindings) (float64, bool) {
	parts, d := ws.src.Resolve(step, b, ws.buf[:0])
	ws.buf = parts[:0]
	return float64(d), d > 0
}

// RootCard returns the size of the walker's root population — the stratum
// weight proportional allocation uses.
func (w *Walker) RootCard() int { return w.rootLen }

// Step performs one walk.
func (w *Walker) Step() {
	w.acc.N++
	if w.rootLen == 0 {
		// Empty root population: its true total is zero, every walk rejects.
		w.acc.Rejected++
		return
	}
	if w.owned != nil {
		w.stepOwned()
		return
	}
	b := w.b
	b.Reset()
	st0 := &w.pl.Steps[0]
	prodD := 1.0
	if st0.Kind != query.AccessMembership {
		t, live := w.drawRoot()
		if !live {
			w.acc.Rejected++
			return
		}
		st0.Bind(t, b)
		prodD = float64(w.rootLen)
		// A failed FILTER rejects the walk — a zero-weight HT draw, the same
		// mechanism as a dead draw — so estimates stay unbiased for the
		// filtered totals.
		if len(st0.Filters) > 0 && !w.pl.StepFiltersOK(0, w.src, b) {
			w.acc.Rejected++
			return
		}
	}
	last := len(w.pl.Steps) - 1
	for i := 0; ; i++ {
		if i > 0 {
			st := &w.pl.Steps[i]
			parts, d := w.src.Resolve(i, b, w.parts[:0])
			w.parts = parts[:0]
			if d == 0 {
				w.acc.Rejected++
				return
			}
			if st.Kind != query.AccessMembership {
				t, live := w.draw(i, parts, d)
				if !live {
					w.acc.Rejected++
					return
				}
				st.Bind(t, b)
				prodD *= float64(d)
				if len(st.Filters) > 0 && !w.pl.StepFiltersOK(i, w.src, b) {
					w.acc.Rejected++
					return
				}
			}
		}
		if i == last {
			w.finish(i, b, prodD, 0, false)
			return
		}
		if est := w.oracle.Estimate(i, b); est <= w.thresh {
			w.tipped++
			w.finish(i, b, prodD, est, true)
			return
		}
	}
}

// draw samples the n-th candidate, n uniform in [0, d), of step i's parts.
func (w *Walker) draw(i int, parts []Part, d int) (rdf.Triple, bool) {
	n := w.rng.Intn(d)
	for _, p := range parts {
		if l := p.Span.Len(); n < l {
			return w.src.At(i, p, n)
		} else {
			n -= l
		}
	}
	return rdf.Triple{}, false // unreachable while d = Σ|part|
}

// drawRoot samples a uniform root candidate: from the semantic sub-stratum
// when one is set, otherwise from the root parts. Both draw from exactly
// rootLen candidates.
func (w *Walker) drawRoot() (rdf.Triple, bool) {
	if w.root != nil {
		p := w.rootParts[0]
		return w.src.At(0, p, w.root.Pos(w.rng.Intn(w.root.Total))-p.Span.Lo)
	}
	return w.draw(0, w.rootParts, w.rootLen)
}

// stepOwned is the root-only walk of Options.Owned.
func (w *Walker) stepOwned() {
	t, live := w.drawRoot()
	if !live {
		w.acc.Rejected++
		return
	}
	groups, n := w.owned(t)
	if len(groups) == 0 || n == 0 {
		w.acc.Rejected++
		return
	}
	x := float64(w.rootLen) / float64(n)
	for _, a := range groups {
		w.acc.Add(a, x)
	}
}

// finish completes a walk exactly: enumerate (or fetch from the cache) the
// suffix aggregation beyond step i and credit each group with its path
// count scaled by the sampled prefix's inverse probability ∏ d_j. Tipped
// walks also record the oracle's estimate against the exact suffix size.
func (w *Walker) finish(i int, b query.Bindings, prodD, tipEst float64, tipped bool) {
	agg := w.suffixAgg(i, b)
	if tipped {
		var actual float64
		for _, e := range agg {
			actual += float64(e.n)
		}
		w.diag.Observe(tipEst, actual)
	}
	if len(agg) == 0 {
		w.acc.Rejected++
		return
	}
	if w.pl.Query.Agg == query.AggAvg {
		clear(w.perGroupND)
		for _, e := range agg {
			if v, ok := w.src.Numeric(e.b); ok {
				cur := w.perGroupND[e.a]
				cur.num += v * float64(e.n) * prodD
				cur.den += float64(e.n) * prodD
				w.perGroupND[e.a] = cur
			}
		}
		for a, x := range w.perGroupND {
			w.acc.AddRatio(a, x.num, x.den)
		}
		return
	}
	// COUNT weighs every path by 1, SUM by its numeric β (others skipped).
	clear(w.perGroup)
	for _, e := range agg {
		v, ok := 1.0, true
		if w.pl.Query.Agg == query.AggSum {
			v, ok = w.src.Numeric(e.b)
		}
		if ok {
			w.perGroup[e.a] += v * float64(e.n) * prodD
		}
	}
	for a, x := range w.perGroup {
		w.acc.Add(a, x)
	}
}

func (w *Walker) suffixAgg(i int, b query.Bindings) []suffixEntry {
	k, ok := w.aggKeyAt(i+1, b)
	if !ok {
		return w.computeSuffixAgg(i, b)
	}
	if agg, hit := w.cache.getAgg(k); hit {
		return agg
	}
	return w.cache.putAgg(k, w.computeSuffixAgg(i, b))
}

// aggKeyAt builds the cache key of boundary step: the interface values plus
// the already-bound α/β. ok is false when they do not fit the fixed key.
func (w *Walker) aggKeyAt(step int, b query.Bindings) (k aggKey, ok bool) {
	q := w.pl.Query
	iface := w.pl.Iface(step)
	if len(iface)+2 > maxIfaceVals {
		return k, false
	}
	k.step = int8(step)
	for i, v := range iface {
		k.vals[i] = b[v]
	}
	for i, v := range []query.Var{q.Alpha, q.Beta} {
		k.vals[len(iface)+i] = rdf.NoID
		if v != query.NoVar {
			k.vals[len(iface)+i] = b[v]
		}
	}
	for i := len(iface) + 2; i < maxIfaceVals; i++ {
		k.vals[i] = rdf.NoID
	}
	return k, true
}

func (w *Walker) computeSuffixAgg(i int, b query.Bindings) []suffixEntry {
	q := w.pl.Query
	type akey struct{ a, b rdf.ID }
	idx := make(map[akey]int)
	var out []suffixEntry
	_ = w.enum.Run(i+1, b, func() error {
		a, bb := rdf.NoID, rdf.NoID
		if q.Alpha != query.NoVar {
			a = b[q.Alpha]
		}
		if q.Beta != query.NoVar {
			bb = b[q.Beta]
		}
		ak := akey{a, bb}
		if j, ok := idx[ak]; ok {
			out[j].n++
			return nil
		}
		idx[ak] = len(out)
		out = append(out, suffixEntry{a: a, b: bb, n: 1})
		return nil
	})
	return out
}

// Walks returns the number of walks performed; with Step and Snapshot it
// makes the Walker an exec.Stepper.
func (w *Walker) Walks() int64 { return w.acc.N }

// Snapshot returns the running estimate of the walker's root population
// (sum/N) with 0.95 intervals. Strata merge through wj.MergeStratified.
func (w *Walker) Snapshot() wj.Result { return w.acc.Snapshot(stats.Z95) }

// Acc exposes the accumulator.
func (w *Walker) Acc() *wj.Acc { return w.acc }

// Tipped returns how many walks switched to the exact finish.
func (w *Walker) Tipped() int64 { return w.tipped }

// TipDiag returns the walker's estimate-vs-actual tipping diagnostics.
func (w *Walker) TipDiag() core.TipDiag { return w.diag }

// Err returns the Source's sticky remote error (see Source.Err).
func (w *Walker) Err() error { return w.src.Err() }
