package shard

import (
	"fmt"
	"io"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// View is the plan-scoped read surface of ONE shard — the boundary the
// set's walk.Source consumes, promoted to an interface so a shard can be
// served from another process (internal/dist) as well as from a local
// index.Store. A View is opened for one compiled plan; step indices refer
// to that plan's steps, which lets a remote implementation register the
// plan once and keep per-step state (static spans, orders) on its side.
//
// Views returned for local shards are safe for the walk hot path: Resolve
// and At are direct store accesses with the static-span cache absorbed.
// Remote implementations cannot report I/O failures through these
// signatures; they degrade to empty resolutions and record a sticky error
// retrievable through the optional Err() error method (see viewErr), which
// drivers check after enumerations and runs.
type View interface {
	// Resolve returns step i's candidate span on this shard under b, with
	// ok=false for an empty candidate set.
	Resolve(i int, b query.Bindings) (index.Span, bool)
	// At returns the n-th triple of step i's span sp (0 <= n < sp.Len()).
	At(i int, sp index.Span, n int) rdf.Triple
	// Read appends up to max triples of step i's span sp, starting at
	// offset off, to buf — the batched form of At for remote enumeration.
	Read(i int, sp index.Span, off, max int, buf []rdf.Triple) []rdf.Triple
	// Contains reports whether this shard holds triple t.
	Contains(t rdf.Triple) bool
}

// Remote provides plan-scoped Views of a shard that lives outside this
// process. internal/dist implements it over the kgworker wire protocol.
type Remote interface {
	// Open prepares a View for pl. Implementations typically ship the plan
	// to the remote side once and reuse the registration for every
	// resolution of that plan.
	Open(pl *query.Plan) (View, error)
	io.Closer
}

// localView serves a shard held in-process: direct store access with the
// plan's static spans pre-resolved.
type localView struct {
	store  *index.Store
	pl     *query.Plan
	static []query.StaticSpan
}

func newLocalView(st *index.Store, pl *query.Plan) *localView {
	return &localView{store: st, pl: pl, static: pl.ResolveStatic(st)}
}

func (v *localView) Resolve(i int, b query.Bindings) (index.Span, bool) {
	st := &v.pl.Steps[i]
	if st.Static {
		ss := v.static[i]
		return ss.Span, ss.OK
	}
	return st.ResolveSpan(v.store, b)
}

func (v *localView) At(i int, sp index.Span, n int) rdf.Triple {
	return v.store.At(v.pl.Steps[i].Order, sp, n)
}

func (v *localView) Read(i int, sp index.Span, off, max int, buf []rdf.Triple) []rdf.Triple {
	ord := v.pl.Steps[i].Order
	n := sp.Len() - off
	if n > max {
		n = max
	}
	for j := 0; j < n; j++ {
		buf = append(buf, v.store.At(ord, sp, off+j))
	}
	return buf
}

func (v *localView) Contains(t rdf.Triple) bool { return v.store.Contains(t) }

// NewStoreView returns the View of a single in-process store for pl — the
// same view Set.Source opens for local shards, exported so a shard
// server (internal/dist) answers wire-level Resolve/At/Read/Contains
// through the identical code path the in-process walker uses.
func NewStoreView(st *index.Store, pl *query.Plan) View { return newLocalView(st, pl) }

// viewErr reads the sticky error of a View, if its implementation keeps
// one. Local views never fail.
func viewErr(v View) error {
	if e, ok := v.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// NewHybrid assembles a Set whose shards are a mix of local stores and
// remote providers: shard k is served by stores[k] when non-nil, else by
// remotes[k]. Both slices must have one entry per shard. This is how a
// kgworker in own-shard placement sees the fleet — its shard mmap'ed
// locally, every other shard resolved over the wire — and how a
// coordinator-side exact fallback enumerates a set it only partially
// holds. Walkers can only root in local strata (NewWalker enforces it);
// the set's Source reaches every shard.
func NewHybrid(stores []*index.Store, remotes []Remote, part Partitioner, dict *rdf.Dict) (*Set, error) {
	if len(stores) == 0 || len(stores) != len(remotes) {
		return nil, fmt.Errorf("shard: hybrid set needs matching store/remote slices, got %d/%d",
			len(stores), len(remotes))
	}
	if part.fn == nil {
		return nil, fmt.Errorf("shard: nil partitioner")
	}
	if dict == nil {
		return nil, fmt.Errorf("shard: hybrid set needs the shared dictionary")
	}
	local := 0
	for k := range stores {
		if stores[k] != nil {
			local++
			continue
		}
		if remotes[k] == nil {
			return nil, fmt.Errorf("shard: shard %d has neither a local store nor a remote", k)
		}
	}
	return &Set{stores: stores, remotes: remotes, part: part, dict: dict}, nil
}

// Local reports whether shard k is held in-process.
func (s *Set) Local(k int) bool { return s.stores[k] != nil }

// localStores returns the in-process shard stores (all of them, for sets
// built or loaded whole).
func (s *Set) localStores() []*index.Store {
	out := make([]*index.Store, 0, len(s.stores))
	for _, st := range s.stores {
		if st != nil {
			out = append(out, st)
		}
	}
	return out
}

// viewsFor opens one View per shard for pl: direct local views over the
// in-process stores, remote views over the wire for the rest.
func (s *Set) viewsFor(pl *query.Plan) ([]View, error) {
	views := make([]View, len(s.stores))
	for k, st := range s.stores {
		if st != nil {
			views[k] = newLocalView(st, pl)
			continue
		}
		v, err := s.remotes[k].Open(pl)
		if err != nil {
			return nil, fmt.Errorf("shard: opening remote view of shard %d: %w", k, err)
		}
		views[k] = v
	}
	return views, nil
}
