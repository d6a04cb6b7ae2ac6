package live

import (
	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
)

// View is one immutable generation of the overlay: the base store, the
// delta store indexing the pending adds (nil when there are none), and the
// tombstone set marking base triples that have been deleted (nil when
// empty). Apply publishes a fresh View per batch — maps and stores are
// never mutated after publication, so a View taken at the start of a run
// stays consistent for its whole lifetime, however long ingest keeps going.
//
// The live triple set of a view is (base ∖ tombs) ∪ delta, with the
// invariants delta ∩ base = ∅ and tombs ⊆ base maintained by Store.Apply.
type View struct {
	base  *index.Store
	delta *index.Store
	tombs map[rdf.Triple]struct{}
	gen   uint64
}

// Base returns the immutable base store.
func (v *View) Base() *index.Store { return v.base }

// Delta returns the delta store over pending adds, nil when none are
// pending.
func (v *View) Delta() *index.Store { return v.delta }

// Gen returns the view's generation number (monotonic per Store).
func (v *View) Gen() uint64 { return v.gen }

// Dict returns the shared term dictionary.
func (v *View) Dict() *rdf.Dict { return v.base.Dict() }

// DeltaAdds returns the number of pending insertions.
func (v *View) DeltaAdds() int {
	if v.delta == nil {
		return 0
	}
	return v.delta.NumTriples()
}

// Tombstones returns the number of deleted base triples.
func (v *View) Tombstones() int { return len(v.tombs) }

// NumTriples returns the exact live triple count:
// |base| − |tombs| + |delta|.
func (v *View) NumTriples() int {
	return v.base.NumTriples() - len(v.tombs) + v.DeltaAdds()
}

// Tombstoned reports whether t is a deleted base triple.
func (v *View) Tombstoned(t rdf.Triple) bool {
	if v.tombs == nil {
		return false
	}
	_, dead := v.tombs[t]
	return dead
}

// Contains reports membership in the LIVE set: present in the base and not
// tombstoned, or present in the delta.
func (v *View) Contains(t rdf.Triple) bool {
	if v.base.Contains(t) {
		return !v.Tombstoned(t)
	}
	return v.delta != nil && v.delta.Contains(t)
}

// Numeric resolves the numeric value of a term across both layers. Terms
// interned after the base was built are covered by the delta store's
// numeric table (rebuilt per batch against the grown dictionary).
func (v *View) Numeric(id rdf.ID) (float64, bool) {
	if x, ok := v.base.Numeric(id); ok {
		return x, true
	}
	if v.delta != nil {
		return v.delta.Numeric(id)
	}
	return 0, false
}

// IndexBytes estimates the resident index size across both layers.
func (v *View) IndexBytes() int64 {
	n := v.base.EstimateBytes()
	if v.delta != nil {
		n += v.delta.EstimateBytes()
	}
	return n
}

// Triples streams the live triple set: the base in SPO order with
// tombstones skipped, then the delta adds. This is the compaction feed
// (snap.BuildExternal sorts and deduplicates downstream, so emission order
// does not matter) and the materialization path of CompactInMemory.
func (v *View) Triples(emit func(rdf.Triple) error) error {
	full := v.base.FullSpan(index.SPO)
	for i := 0; i < full.Len(); i++ {
		t := v.base.At(index.SPO, full, i)
		if v.Tombstoned(t) {
			continue
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if v.delta != nil {
		dsp := v.delta.FullSpan(index.SPO)
		for i := 0; i < dsp.Len(); i++ {
			if err := emit(v.delta.At(index.SPO, dsp, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stores returns the non-nil layer stores, base first — the scope the
// span-statistics estimator sums over.
func (v *View) stores() []*index.Store {
	if v.delta == nil {
		return []*index.Store{v.base}
	}
	return []*index.Store{v.base, v.delta}
}
