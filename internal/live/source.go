package live

import (
	"context"
	"errors"

	"kgexplore/internal/card"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/walk"
)

// The overlay's two parts, as walk.Part.Src values.
const (
	layerBase  = 0
	layerDelta = 1
)

// source is the View's walk.Source for one plan. A step's candidate set is
// the DISJOINT union of its base part and its delta part (delta ∩ base = ∅
// by the Apply invariant), and it deliberately INCLUDES tombstoned base
// triples: the sampling denominator d counts the superset, and a draw that
// lands on a tombstone is dead, so the walk rejects and each LIVE triple is
// drawn with probability exactly 1/d — the Horvitz–Thompson weights stay
// unbiased for the live set. Filtering tombstones out of d instead would
// need the number of tombstones inside every span, which no index answers
// in O(1). Enumeration skips tombstones.
type source struct {
	v  *View
	pl *query.Plan
}

// Source opens the view's walk.Source for pl.
func (v *View) Source(pl *query.Plan) (walk.Source, error) {
	return &source{v: v, pl: pl}, nil
}

// Membership steps report d = 1 only for a LIVE triple (tombstones honored
// immediately: a membership step binds nothing, so there is no later draw
// to reject).
func (s *source) Resolve(i int, b query.Bindings, buf []walk.Part) ([]walk.Part, int) {
	st := &s.pl.Steps[i]
	v := s.v
	if st.Kind == query.AccessMembership {
		t := st.BoundTriple(b)
		if v.base.Contains(t) {
			if v.Tombstoned(t) {
				return buf, 0
			}
			return append(buf, walk.Part{Src: layerBase}), 1
		}
		if v.delta != nil && v.delta.Contains(t) {
			return append(buf, walk.Part{Src: layerDelta}), 1
		}
		return buf, 0
	}
	d := 0
	if sp, ok := st.ResolveSpan(v.base, b); ok {
		buf = append(buf, walk.Part{Src: layerBase, Span: sp})
		d += sp.Len()
	}
	if v.delta != nil {
		if sp, ok := st.ResolveSpan(v.delta, b); ok {
			buf = append(buf, walk.Part{Src: layerDelta, Span: sp})
			d += sp.Len()
		}
	}
	return buf, d
}

func (s *source) At(i int, p walk.Part, n int) (rdf.Triple, bool) {
	ord := s.pl.Steps[i].Order
	if p.Src == layerDelta {
		return s.v.delta.At(ord, p.Span, n), true
	}
	t := s.v.base.At(ord, p.Span, n)
	return t, !s.v.Tombstoned(t)
}

func (s *source) Read(i int, p walk.Part, off, max int, buf []rdf.Triple) ([]rdf.Triple, int) {
	n := min(max, p.Span.Len()-off)
	for j := off; j < off+n; j++ {
		if t, live := s.At(i, p, j); live {
			buf = append(buf, t)
		}
	}
	return buf, n
}

func (s *source) Numeric(id rdf.ID) (float64, bool) { return s.v.Numeric(id) }

func (s *source) Err() error { return nil }

// ErrDistinctOverlay reports a COUNT(DISTINCT) plan on the overlay walker.
// Distinct estimation over the merged view would need tombstone-aware
// per-value dedup reconciliation across the layers; rather than risk a
// silently biased estimate, the walker refuses and callers route distinct
// queries to the exact path (Exact), which enumerates the merged view —
// the same "exact, never biased" policy the stratified sampler applies to
// DISTINCT (see DESIGN's fallback taxonomy).
var ErrDistinctOverlay = errors.New(
	"live: COUNT(DISTINCT) is not estimated over the overlay; use the exact path")

// WalkerOptions configure one overlay walker.
type WalkerOptions struct {
	// Threshold is the Audit Join tipping point (walk.Options' rule).
	Threshold float64
	// Seed seeds the walker's private random source.
	Seed int64
}

// NewWalker creates an Audit Join walker over the view: roots sample
// uniformly from the merged root candidates, a draw that lands on a
// tombstone rejects the walk, and tipped walks finish by merged-view
// enumeration. The walker holds the view: its estimates refer to that
// generation, which is the snapshot consistency a chart run wants under
// ingest. The tipping oracle is span statistics summed over base and
// delta. Distinct plans fail with ErrDistinctOverlay.
func NewWalker(v *View, pl *query.Plan, opts WalkerOptions) (*walk.Walker, error) {
	if pl.Query.Distinct {
		return nil, ErrDistinctOverlay
	}
	src, _ := v.Source(pl)
	return walk.New(src, pl, walk.Options{
		Threshold: opts.Threshold,
		Seed:      opts.Seed,
		Estimator: card.NewSpanStats(v.stores()...),
		Part:      walk.AllParts,
	})
}

// Exact computes the exact per-group aggregate over the view's LIVE triple
// set by merged-view enumeration (see walk.Exact) — the path distinct
// overlay queries take.
func Exact(ctx context.Context, v *View, pl *query.Plan) (map[rdf.ID]float64, error) {
	return walk.Exact(ctx, v, pl)
}
