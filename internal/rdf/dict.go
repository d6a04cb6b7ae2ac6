package rdf

import (
	"fmt"
	"strings"
	"sync"
)

// ID is a dictionary-encoded term identifier. IDs are dense, starting at 0,
// assigned in first-seen order. The zero value is a valid ID (the first
// interned term), so code that needs a sentinel should use NoID.
type ID uint32

// NoID is a sentinel that never names an interned term.
const NoID = ID(^uint32(0))

// Dict is a bidirectional dictionary between Terms and dense IDs.
//
// All methods are safe for concurrent use, including Intern: the dictionary
// only grows and existing IDs never change, so readers racing an Intern see
// either the pre- or post-insertion dictionary, both of which are
// consistent. Live ingestion relies on this — walk runners resolve terms
// while the ingest path interns new ones.
//
// The reverse map is built lazily on the first Intern or Lookup (guarded by
// a sync.Once, so concurrent first Lookups are safe): a dictionary restored
// from a store snapshot pays for term hashing only if something actually
// resolves terms by value.
type Dict struct {
	mu      sync.RWMutex
	terms   []Term
	ids     map[Term]ID
	idsOnce sync.Once
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{}
}

// DictFromTerms wraps an already-deduplicated term slice, which is retained
// (term i gets ID i). The reverse map is deferred until first use; callers
// that only ever resolve IDs to terms never pay for it. This is the
// snapshot-load constructor.
func DictFromTerms(terms []Term) *Dict {
	return &Dict{terms: terms}
}

// ensureIDs builds the reverse map from the term slice on first use.
func (d *Dict) ensureIDs() {
	d.idsOnce.Do(func() {
		d.ids = make(map[Term]ID, len(d.terms))
		for i, t := range d.terms {
			if _, dup := d.ids[t]; !dup {
				d.ids[t] = ID(i)
			}
		}
	})
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Intern(t Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIDs()
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := ID(len(d.terms))
	d.terms = append(d.terms, t)
	d.ids[t] = id
	return id
}

// InternIRI is shorthand for Intern(NewIRI(iri)).
func (d *Dict) InternIRI(iri string) ID { return d.Intern(NewIRI(iri)) }

// Lookup returns the ID for t and whether t has been interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.ensureIDs()
	id, ok := d.ids[t]
	return id, ok
}

// LookupIRI returns the ID for the IRI and whether it has been interned.
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(NewIRI(iri)) }

// Term returns the term with the given ID. It panics if id is out of range,
// which always indicates a programming error (IDs only come from this Dict).
func (d *Dict) Term(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.terms) {
		panic(fmt.Sprintf("rdf: ID %d out of range (dict has %d terms)", id, len(d.terms)))
	}
	return d.terms[id]
}

// OwnStrings copies every term's strings to the heap, so the dictionary no
// longer aliases the memory it was restored from: a snapshot mapping that
// is unmapped while the dictionary lives on. Term values do not change.
func (d *Dict) OwnStrings() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range d.terms {
		t.Value, t.Datatype, t.Lang = strings.Clone(t.Value), strings.Clone(t.Datatype), strings.Clone(t.Lang)
		d.terms[i] = t
	}
	// The reverse map's keys hold the old strings: drop it, and let the next
	// lookup rebuild it (no ensureIDs runs while the write lock is held).
	d.ids, d.idsOnce = nil, sync.Once{}
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Triple is a dictionary-encoded RDF triple.
type Triple struct {
	S, P, O ID
}

// String renders the encoded triple; useful only for debugging since it shows
// raw IDs.
func (t Triple) String() string { return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O) }

// DecodedTriple is a triple of decoded terms, used at the I/O boundary.
type DecodedTriple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without the trailing dot).
func (t DecodedTriple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Graph is a dictionary plus a set of encoded triples: the in-memory
// representation of an RDF graph before indexing. Duplicate triples are
// removed by Dedup (loaders call it for you).
type Graph struct {
	Dict    *Dict
	Triples []Triple
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDict()}
}

// Add encodes and appends one decoded triple.
func (g *Graph) Add(s, p, o Term) {
	g.Triples = append(g.Triples, Triple{g.Dict.Intern(s), g.Dict.Intern(p), g.Dict.Intern(o)})
}

// AddIRIs appends a triple of three IRIs, a common case when generating data.
func (g *Graph) AddIRIs(s, p, o string) {
	g.Add(NewIRI(s), NewIRI(p), NewIRI(o))
}

// AddEncoded appends an already-encoded triple. The caller must ensure the
// IDs come from g.Dict.
func (g *Graph) AddEncoded(t Triple) { g.Triples = append(g.Triples, t) }

// Len returns the number of triples (including duplicates until Dedup runs).
func (g *Graph) Len() int { return len(g.Triples) }

// Dedup sorts the triples in (S,P,O) order and removes duplicates, returning
// the number of duplicates removed. The sort is the radix sort of
// SortTriples, so repeated dedup passes during ingest stay O(n) rather than
// O(n log n).
func (g *Graph) Dedup() int {
	SortTriples(g.Triples, FieldS, FieldP, FieldO)
	n := len(g.Triples)
	out := g.Triples[:0]
	var prev Triple
	for i, t := range g.Triples {
		if i == 0 || t != prev {
			out = append(out, t)
			prev = t
		}
	}
	g.Triples = out
	return n - len(out)
}

// Decode returns the decoded form of an encoded triple.
func (g *Graph) Decode(t Triple) DecodedTriple {
	return DecodedTriple{g.Dict.Term(t.S), g.Dict.Term(t.P), g.Dict.Term(t.O)}
}
