package shard

import (
	"context"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/walk"
)

// source is the Set's walk.Source for one plan: step i's candidate set is
// the disjoint union of one part per shard, each read through that shard's
// View (local store access, or a remote worker over the wire). Sampling
// uniformly from the gathered parts with d = Σ|part| reproduces exactly
// the distribution a monolithic store would give — the property that keeps
// every stratum's Horvitz–Thompson estimate unbiased even though
// continuation triples live on other shards than the root.
//
// When the step's subject is bound (a constant, or a join variable already
// bound by the prefix), only the shard owning that subject can hold
// matching triples, and the source consults it alone. This owner fast path
// is not an approximation: every other shard's span is empty by the
// partition invariant. Remote parts are enumerated in batched Reads.
type source struct {
	set   *Set
	pl    *query.Plan
	views []View
}

// Source opens the set's walk.Source for pl: direct views of the
// in-process shards, remote views of the rest.
func (s *Set) Source(pl *query.Plan) (walk.Source, error) {
	views, err := s.viewsFor(pl)
	if err != nil {
		return nil, err
	}
	return &source{set: s, pl: pl, views: views}, nil
}

// ExactCtx evaluates the plan exactly over the whole sharded set by
// enumeration through the set's Source — the documented fallback for
// COUNT(DISTINCT) plans whose distinct variable the partition key does not
// own: the per-shard distinct sets cannot be merged by addition, so the
// union is computed exactly. It returns ctx.Err with a nil map when ctx
// fires.
func (s *Set) ExactCtx(ctx context.Context, pl *query.Plan) (map[rdf.ID]float64, error) {
	return walk.Exact(ctx, s, pl)
}

func (s *source) Resolve(i int, b query.Bindings, buf []walk.Part) ([]walk.Part, int) {
	st := &s.pl.Steps[i]
	if st.Kind == query.AccessMembership {
		t := st.BoundTriple(b)
		k := s.set.Owner(t.S)
		if s.views[k].Contains(t) {
			return append(buf, walk.Part{Src: k}), 1
		}
		return buf, 0
	}
	if st.Bound[index.S] {
		// Owner fast path: the subject is pinned, so the partition invariant
		// empties every other shard's span.
		subj := st.Pattern.S.ID
		if st.Pattern.S.IsVar() {
			subj = b[st.Pattern.S.Var]
		}
		k := s.set.Owner(subj)
		if sp, ok := s.views[k].Resolve(i, b); ok {
			return append(buf, walk.Part{Src: k, Span: sp}), sp.Len()
		}
		return buf, 0
	}
	d := 0
	for k, v := range s.views {
		if sp, ok := v.Resolve(i, b); ok {
			buf = append(buf, walk.Part{Src: k, Span: sp})
			d += sp.Len()
		}
	}
	return buf, d
}

func (s *source) At(i int, p walk.Part, n int) (rdf.Triple, bool) {
	return s.views[p.Src].At(i, p.Span, n), true
}

func (s *source) Read(i int, p walk.Part, off, max int, buf []rdf.Triple) ([]rdf.Triple, int) {
	out := s.views[p.Src].Read(i, p.Span, off, max, buf)
	return out, len(out) - len(buf)
}

func (s *source) Numeric(id rdf.ID) (float64, bool) { return s.set.Numeric(id) }

// Err returns the first sticky error any remote view recorded, nil for
// fully local sets.
func (s *source) Err() error {
	for _, v := range s.views {
		if err := viewErr(v); err != nil {
			return err
		}
	}
	return nil
}
