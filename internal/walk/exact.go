package walk

import (
	"context"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/wj"
)

// checkEvery is the number of result rows between context checks of the
// exact enumeration.
const checkEvery = 1 << 12

// Exact evaluates the plan exactly over the store's live triple set by
// backtracking enumeration through its Source, with the aggregation
// semantics of the single-store exact engines: COUNT counts matches,
// SUM/AVG aggregate numeric β values (non-numeric rows skipped), DISTINCT
// counts distinct (group, β) pairs, and FILTERs prune assignments during
// the enumeration. It checks ctx every few thousand rows and returns
// ctx.Err with a nil map when it fires.
func Exact(ctx context.Context, st Store, pl *query.Plan) (map[rdf.ID]float64, error) {
	return exact(ctx, st, []*query.Plan{pl}, pl.Query.Agg, pl.Query.Distinct)
}

// ExactUnion evaluates a compiled union exactly under SPARQL bag semantics:
// COUNT and SUM add across branches, AVG is the ratio of the summed
// per-branch numerators and denominators, and COUNT(DISTINCT) deduplicates
// (group, β) pairs ACROSS branches through one shared value set.
func ExactUnion(ctx context.Context, st Store, up *query.UnionPlan) (map[rdf.ID]float64, error) {
	return exact(ctx, st, up.Plans, up.Query.Agg(), up.Query.Distinct())
}

func exact(ctx context.Context, st Store, plans []*query.Plan, agg query.AggFunc, distinct bool) (map[rdf.ID]float64, error) {
	sums := make(map[rdf.ID]float64)
	var den map[rdf.ID]float64
	if agg == query.AggAvg {
		den = make(map[rdf.ID]float64)
	}
	var seen map[uint64]struct{}
	if distinct {
		seen = make(map[uint64]struct{})
	}
	for _, pl := range plans {
		if err := exactInto(ctx, st, pl, sums, den, seen); err != nil {
			return nil, err
		}
	}
	for a, d := range den {
		if d > 0 {
			sums[a] /= d
		}
	}
	return sums, nil
}

// exactInto enumerates one plan and accumulates into the caller's maps:
// sums (or counts) into sums, AVG denominators into den (nil unless AVG),
// and the distinct (group, β) keys into seen (nil unless DISTINCT).
func exactInto(ctx context.Context, st Store, pl *query.Plan, sums, den map[rdf.ID]float64, seen map[uint64]struct{}) error {
	src, err := st.Source(pl)
	if err != nil {
		return err
	}
	q := pl.Query
	b := pl.NewBindings()
	rows := 0
	err = NewEnumerator(src, pl).Run(0, b, func() error {
		rows++
		if rows&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a := wj.GlobalGroup
		if q.Alpha != query.NoVar {
			a = b[q.Alpha]
		}
		switch q.Agg {
		case query.AggSum, query.AggAvg:
			if v, ok := src.Numeric(b[q.Beta]); ok {
				sums[a] += v
				if den != nil {
					den[a]++
				}
			}
		default:
			if seen != nil {
				key := wj.DistinctKey(a, b[q.Beta])
				if _, dup := seen[key]; dup {
					return nil
				}
				seen[key] = struct{}{}
			}
			sums[a]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A remote part failing mid-enumeration leaves the sums incomplete.
	return src.Err()
}
