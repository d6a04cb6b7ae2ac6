// Package shard partitions the triple set into K disjoint shards by a hash
// of the subject and runs Audit Join as a scatter-gather over them. Each
// shard is an ordinary index.Store (buildable, snapshottable via
// internal/snap, mmap-loadable), and the shard set is described by a small
// versioned manifest so a whole set is loaded — or rejected — atomically.
//
// The estimator is stratified: stratum k is the set of join paths whose
// ROOT triple lives in shard k. A stratum's walker samples its first step
// from shard k's root span only and resolves every later step against the
// union of all shards (see Set.Source), so each stratum's Horvitz–Thompson
// estimate is unbiased for the stratum total, strata are disjoint and
// covering, and the global estimate is the sum of stratum estimates with
// variances combined in quadrature (wj.MergeStratified). Walks are
// allocated across strata proportionally to per-shard root cardinality —
// stratified allocation, not uniform — which is the textbook proportional
// design for stratified sampling.
//
// COUNT(DISTINCT) is estimated shard-locally only when the partition key
// "owns" the distinct variable — β is the subject of the root pattern, so
// every distinct (group, β) pair is counted by exactly one stratum; see
// Owned. Otherwise RunScatter documents the limitation by falling back to
// the exact enumeration (Set.ExactCtx).
package shard

import (
	"fmt"
	"io"
	"sync"

	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
)

// Partitioner names on the wire. The manifest records the name, and loads
// refuse manifests whose partitioner this build does not know.
const (
	// PartitionerSubjectMix is the default: a 32-bit integer mix of the
	// subject ID, modulo K. Robust to ID assignment order.
	PartitionerSubjectMix = "subject-mix32/v1"
	// PartitionerSubjectMod is the trivial alternative: subject ID modulo
	// K. Useful for tests (predictable placement) and for dictionaries
	// whose IDs are already well scattered.
	PartitionerSubjectMod = "subject-mod/v1"
)

// DefaultPartitioner is used when no partitioner is named.
const DefaultPartitioner = PartitionerSubjectMix

// Partitioner assigns every subject ID to one of K shards. The zero value
// is invalid; obtain one from PartitionerByName.
type Partitioner struct {
	name string
	fn   func(id rdf.ID, k int) int
}

// PartitionerByName resolves a partitioner name ("" means the default).
func PartitionerByName(name string) (Partitioner, error) {
	switch name {
	case "", PartitionerSubjectMix:
		return Partitioner{name: PartitionerSubjectMix, fn: func(id rdf.ID, k int) int {
			return int(mix32(uint32(id)) % uint32(k))
		}}, nil
	case PartitionerSubjectMod:
		return Partitioner{name: PartitionerSubjectMod, fn: func(id rdf.ID, k int) int {
			return int(uint32(id) % uint32(k))
		}}, nil
	}
	return Partitioner{}, fmt.Errorf("shard: unknown partitioner %q", name)
}

// Name returns the wire name recorded in manifests.
func (p Partitioner) Name() string { return p.name }

// Shard returns the shard owning subject id among k shards.
func (p Partitioner) Shard(id rdf.ID, k int) int { return p.fn(id, k) }

// mix32 is a full-avalanche 32-bit integer hash (the finalizer steps of
// splitmix-style mixers), so consecutive dictionary IDs land on different
// shards.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Set is a sharded store: K disjoint shards over one shared dictionary.
// All shards see the full dictionary (term IDs, numeric-literal cache), so
// bindings and group keys are directly comparable across shards. Shards are
// normally in-process index.Store values (Build, Load); a Set assembled
// with NewHybrid may instead hold some shards as Remote providers served
// over the wire — stores[k] is nil there and remotes[k] answers for it.
// Read-only after construction and safe for concurrent use.
type Set struct {
	stores  []*index.Store
	remotes []Remote
	part    Partitioner
	dict    *rdf.Dict
	closers []io.Closer
}

// Build partitions g into k shards with part and builds each shard's index.
// Shards build concurrently; index.Build itself parallelizes internally, so
// this is primarily about not serializing the per-shard sorts.
func Build(g *rdf.Graph, k int, part Partitioner) (*Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", k)
	}
	if part.fn == nil {
		return nil, fmt.Errorf("shard: nil partitioner")
	}
	subsets := make([][]rdf.Triple, k)
	if k == 1 {
		subsets[0] = g.Triples
	} else {
		for _, t := range g.Triples {
			w := part.Shard(t.S, k)
			subsets[w] = append(subsets[w], t)
		}
	}
	stores := make([]*index.Store, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = index.Build(&rdf.Graph{Dict: g.Dict, Triples: subsets[i]})
		}(i)
	}
	wg.Wait()
	return &Set{stores: stores, part: part, dict: g.Dict}, nil
}

// K returns the shard count.
func (s *Set) K() int { return len(s.stores) }

// Store returns shard i's index, nil when the shard is remote.
func (s *Set) Store(i int) *index.Store { return s.stores[i] }

// Dict returns the shared dictionary.
func (s *Set) Dict() *rdf.Dict { return s.dict }

// Partitioner returns the partitioner that placed the triples.
func (s *Set) Partitioner() Partitioner { return s.part }

// Owner returns the shard owning subject id.
func (s *Set) Owner(id rdf.ID) int { return s.part.Shard(id, len(s.stores)) }

// NumTriples sums the shard triple counts (in-process shards only; a
// hybrid set does not know its remote shards' sizes).
func (s *Set) NumTriples() int {
	n := 0
	for _, st := range s.stores {
		if st != nil {
			n += st.NumTriples()
		}
	}
	return n
}

// EstimateBytes sums the shard index footprints (in-process shards only).
func (s *Set) EstimateBytes() int64 {
	var n int64
	for _, st := range s.stores {
		if st != nil {
			n += st.EstimateBytes()
		}
	}
	return n
}

// Numeric reads the shared numeric-literal cache. Every shard carries the
// full dictionary, so any in-process shard's cache serves all of them.
func (s *Set) Numeric(id rdf.ID) (float64, bool) {
	for _, st := range s.stores {
		if st != nil {
			return st.Numeric(id)
		}
	}
	return 0, false
}

// Close releases resources held by loaded shard snapshots (mmap mappings)
// and by remote shard providers. Sets produced by Build hold none and
// Close is a no-op.
func (s *Set) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	for _, r := range s.remotes {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.remotes = nil
	return first
}
