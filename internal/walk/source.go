// Package walk is the one Audit Join walker (paper §IV-D) over a store whose
// candidate sets come in parts: a sharded set (one part per shard) or a live
// overlay (a base part and a delta part).
//
// The shared idea is the Source seam. Under the current bindings, a step's
// candidate set is the DISJOINT union of its parts, and the walk samples
// the n-th candidate uniformly with d = Σ|part|. A Source may count
// candidates that are not in the live triple set (a tombstoned base triple):
// drawing one rejects the walk, a zero-weight Horvitz–Thompson draw, so each
// live candidate is still drawn with probability exactly 1/d and the
// estimate stays unbiased. Enumeration, which finishes tipped walks and
// answers exact queries, sees live candidates only.
//
// Each Source owns its store's policy: the sharded set its owner fast path
// and batched remote reads, the overlay its tombstone rejection. The walker
// owns the rest: the step loop, the tipping oracle, the exact finish with
// its suffix cache, and the COUNT/SUM/AVG weighting. Rooting a walk in one
// part (a shard stratum) or in a semantic root stratum, and replacing the
// walk by a root-only policy (the sharded owned-DISTINCT estimator), are
// walker options.
package walk

import (
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// Part is one store's share of a step's candidate set: Src names the store
// (a shard index, or the overlay layer) and Span the candidates in the
// step's index order.
type Part struct {
	Src  int
	Span index.Span
}

// Source is the plan-scoped read surface the walker consumes. Step indices
// refer to the plan the Source was opened for. A Source is not safe for
// concurrent use; open one per walker.
type Source interface {
	// Numeric resolves numeric literal values (SUM/AVG and FILTERs).
	query.NumSource
	// Resolve appends step i's non-empty parts under b to buf and returns
	// them with the candidate count d = Σ|part|; d = 0 means the set is
	// empty. A membership step binds nothing: it returns d = 1 and the one
	// part holding its triple (with an empty span) when the triple is live,
	// and d = 0 otherwise.
	Resolve(i int, b query.Bindings, buf []Part) ([]Part, int)
	// At returns the n-th candidate of part p of step i. live is false when
	// the candidate is not in the live triple set; the walk then rejects.
	At(i int, p Part, n int) (t rdf.Triple, live bool)
	// Read appends to buf the live candidates among positions
	// [off, off+max) of part p of step i, and returns buf with the number of
	// positions it covered. A count of 0 before the end of the part means a
	// remote read failed; Err reports why.
	Read(i int, p Part, off, max int, buf []rdf.Triple) ([]rdf.Triple, int)
	// Err returns the first sticky error a remote part recorded, nil when
	// every read succeeded. Remote failures cannot fail a walk in flight:
	// they degrade to empty resolutions, so drivers check Err after a run
	// and discard its results on error.
	Err() error
}

// Store opens plan-scoped Sources; the exact evaluators take one.
type Store interface {
	Source(pl *query.Plan) (Source, error)
}

// readBatch is the Read size of enumeration: large enough to amortize a
// remote round trip, small enough to keep per-depth buffers cheap.
const readBatch = 1024

// Enumerator visits every live extension of a binding prefix through a
// Source by backtracking. It keeps one part and one read buffer per depth,
// so a full enumeration allocates nothing per candidate. Not safe for
// concurrent use.
type Enumerator struct {
	src   Source
	pl    *query.Plan
	parts [][]Part
	bufs  [][]rdf.Triple
}

// NewEnumerator returns an enumerator of pl's steps over src.
func NewEnumerator(src Source, pl *query.Plan) *Enumerator {
	n := len(pl.Steps)
	return &Enumerator{src: src, pl: pl, parts: make([][]Part, n), bufs: make([][]rdf.Triple, n)}
}

// Run calls visit at every full binding that extends b through steps
// j..last, dropping candidates whose anchored FILTERs fail. Backtracking is
// in place on b, which Run leaves as it found it; an error from visit
// aborts the recursion (context cancellation) and is returned.
func (e *Enumerator) Run(j int, b query.Bindings, visit func() error) error {
	if j == len(e.pl.Steps) {
		return visit()
	}
	st := &e.pl.Steps[j]
	parts, d := e.src.Resolve(j, b, e.parts[j][:0])
	e.parts[j] = parts[:0]
	if d == 0 {
		return nil
	}
	if st.Kind == query.AccessMembership {
		// Membership steps bind no new variables, so no filter anchors here.
		return e.Run(j+1, b, visit)
	}
	for _, p := range parts {
		for off := 0; off < p.Span.Len(); {
			batch, n := e.src.Read(j, p, off, readBatch, e.bufs[j][:0])
			e.bufs[j] = batch[:0]
			if n == 0 {
				break // remote failure: the Source's sticky error reports it
			}
			for _, t := range batch {
				st.Bind(t, b)
				if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.src, b) {
					continue
				}
				if err := e.Run(j+1, b, visit); err != nil {
					st.Unbind(b)
					return err
				}
			}
			off += n
		}
	}
	// NewVars are overwritten by the next Bind; clear only on exit.
	st.Unbind(b)
	return nil
}
