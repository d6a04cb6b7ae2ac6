// Package testkit provides shared helpers for engine tests: deterministic
// random graphs and an independent brute-force query evaluator used as the
// ground-truth oracle. The oracle deliberately shares no code with the
// engines under test: it joins by nested loops over the raw triple list.
package testkit

import (
	"math/rand"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// GlobalGroup mirrors lftj.GlobalGroup without importing it.
const GlobalGroup = rdf.NoID

// RandomGraph builds a deterministic random graph with nSubj subjects,
// nPred predicates, nObj objects and about nTriples triples (duplicates are
// removed). Term IDs are assigned before any triples so tests can refer to
// them: subjects are IDs [0,nSubj), predicates [nSubj, nSubj+nPred), objects
// reuse the subject IDs for half of the draws (so chains exist) and fresh
// object IDs [nSubj+nPred, ...) otherwise.
func RandomGraph(seed int64, nSubj, nPred, nObj, nTriples int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	for i := 0; i < nSubj; i++ {
		g.Dict.InternIRI("s" + itoa(i))
	}
	for i := 0; i < nPred; i++ {
		g.Dict.InternIRI("p" + itoa(i))
	}
	// Fresh objects are integer literals (value i+1) so that SUM/AVG
	// aggregates have numeric data to chew on.
	for i := 0; i < nObj; i++ {
		g.Dict.Intern(rdf.NewTypedLiteral(itoa(i+1), rdf.XSDInteger))
	}
	for i := 0; i < nTriples; i++ {
		s := rdf.ID(rng.Intn(nSubj))
		p := rdf.ID(nSubj + rng.Intn(nPred))
		var o rdf.ID
		if rng.Intn(2) == 0 && nSubj > 1 {
			o = rdf.ID(rng.Intn(nSubj)) // chainable edge
		} else {
			o = rdf.ID(nSubj + nPred + rng.Intn(nObj))
		}
		g.AddEncoded(rdf.Triple{S: s, P: p, O: o})
	}
	g.Dedup()
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// ChainQuery builds a k-step path query over the random graph's predicates:
//
//	?x0 <p0> ?x1 . ?x1 <p1> ?x2 . ... ?x_{k-1} <p_{k-1}> ?xk
//
// with Alpha = ?x0 if grouped, Beta = ?xk.
func ChainQuery(g *rdf.Graph, preds []rdf.ID, grouped, distinct bool) *query.Query {
	q := &query.Query{Distinct: distinct, Beta: query.Var(len(preds))}
	if grouped {
		q.Alpha = 0
	} else {
		q.Alpha = query.NoVar
	}
	for i, p := range preds {
		q.Patterns = append(q.Patterns, query.Pattern{
			S: query.V(query.Var(i)),
			P: query.C(p),
			O: query.V(query.Var(i + 1)),
		})
	}
	return q
}

// GraphNums adapts a graph's dictionary to the query.NumSource interface, so
// the oracle can evaluate filters without an index.Store.
type GraphNums struct{ G *rdf.Graph }

// Numeric implements query.NumSource.
func (n GraphNums) Numeric(id rdf.ID) (float64, bool) {
	return rdf.NumericValue(n.G.Dict.Term(id))
}

type pair struct{ a, b rdf.ID }

// BruteForce evaluates the query by nested loops over the raw triples,
// honoring the query's Alpha/Beta/Distinct and Filters. It is exponential in
// the number of patterns and intended only for tiny test graphs.
func BruteForce(g *rdf.Graph, q *query.Query) map[rdf.ID]float64 {
	counts := make(map[rdf.ID]float64)
	denoms := make(map[rdf.ID]float64)
	seen := make(map[pair]bool)
	bruteInto(g, q, counts, denoms, seen)
	if q.Agg == query.AggAvg {
		for a := range counts {
			counts[a] /= denoms[a]
		}
	}
	return counts
}

// BruteForceUnion evaluates a union with SPARQL bag semantics: COUNT and SUM
// add up across branches, AVG is the ratio of the summed numerators and
// denominators, and DISTINCT deduplicates (group, β) pairs across branches.
func BruteForceUnion(g *rdf.Graph, u *query.UnionQuery) map[rdf.ID]float64 {
	counts := make(map[rdf.ID]float64)
	denoms := make(map[rdf.ID]float64)
	seen := make(map[pair]bool)
	for _, q := range u.Branches {
		bruteInto(g, q, counts, denoms, seen)
	}
	if u.Agg() == query.AggAvg {
		for a := range counts {
			counts[a] /= denoms[a]
		}
	}
	return counts
}

// bruteInto runs the nested-loop join of one query, accumulating into shared
// maps (shared across union branches so DISTINCT dedups cross-branch).
func bruteInto(g *rdf.Graph, q *query.Query, counts, denoms map[rdf.ID]float64, seen map[pair]bool) {
	nv := q.NumVars()
	bind := make([]rdf.ID, nv)
	for i := range bind {
		bind[i] = rdf.NoID
	}
	nums := GraphNums{G: g}

	match := func(a query.Atom, v rdf.ID) (rdf.ID, bool, bool) {
		// Returns (newBinding, needsBind, ok).
		if !a.IsVar() {
			return 0, false, a.ID == v
		}
		if bind[a.Var] != rdf.NoID {
			return 0, false, bind[a.Var] == v
		}
		return v, true, true
	}

	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Patterns) {
			for fi := range q.Filters {
				if !q.Filters[fi].Eval(nums, bind) {
					return
				}
			}
			a := GlobalGroup
			if q.Alpha != query.NoVar {
				a = bind[q.Alpha]
			}
			switch q.Agg {
			case query.AggSum, query.AggAvg:
				if v, ok := rdf.NumericValue(g.Dict.Term(bind[q.Beta])); ok {
					counts[a] += v
					denoms[a]++
				}
				return
			}
			if q.Distinct {
				k := pair{a, bind[q.Beta]}
				if seen[k] {
					return
				}
				seen[k] = true
			}
			counts[a]++
			return
		}
		p := q.Patterns[i]
		for _, tr := range g.Triples {
			var toSet [3]struct {
				v   query.Var
				val rdf.ID
			}
			n := 0
			ok := true
			for j, av := range []struct {
				a query.Atom
				v rdf.ID
			}{{p.S, tr.S}, {p.P, tr.P}, {p.O, tr.O}} {
				_ = j
				nv, needs, m := match(av.a, av.v)
				if !m {
					ok = false
					break
				}
				if needs {
					toSet[n].v = av.a.Var
					toSet[n].val = nv
					n++
				}
			}
			if !ok {
				continue
			}
			// A variable repeated inside one pattern would need a
			// consistency check here; the fragment forbids it and
			// Validate rejects it, so binding directly is safe.
			for k := 0; k < n; k++ {
				bind[toSet[k].v] = toSet[k].val
			}
			rec(i + 1)
			for k := 0; k < n; k++ {
				bind[toSet[k].v] = rdf.NoID
			}
		}
	}
	rec(0)
}

// BuildStore indexes the graph.
func BuildStore(g *rdf.Graph) *index.Store { return index.Build(g) }

// MapsEqual compares an engine result against the oracle within eps.
func MapsEqual(got, want map[rdf.ID]float64, eps float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		gv, ok := got[k]
		if !ok {
			return false
		}
		d := gv - w
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// WideChain builds the interface-overflow probe: an n-pattern chain
// <root> <p> ?x0 . ?x0 <p> ?x1 . … ?x(n-2) <p> ?x(n-1) counting ?x(n-1),
// with one FILTER reading every variable (their numeric sum exceeds a
// threshold that about half the paths pass). The graph is layered: the
// root, one node in layer 1 and two numeric-literal nodes in every later
// layer, with every edge between consecutive layers. Because the filter
// reads every variable at the last step, boundary i's interface holds i
// variables, so past nine patterns it outgrows every fixed suffix-cache key.
func WideChain(n int) (*rdf.Graph, *query.Query) {
	g := rdf.NewGraph()
	p := rdf.NewIRI("urn:wide:p")
	layer := []rdf.Term{rdf.NewIRI("urn:wide:root")}
	lo, hi := 0.0, 0.0
	for i := 1; i <= n; i++ {
		next := []rdf.Term{rdf.NewLiteral(itoa(2 * i))}
		if i > 1 {
			next = append(next, rdf.NewLiteral(itoa(2*i+1)))
			hi++
		}
		lo += float64(2 * i)
		for _, s := range layer {
			for _, o := range next {
				g.Add(s, p, o)
			}
		}
		layer = next
	}
	g.Dedup()
	pid, _ := g.Dict.Lookup(p)
	root, _ := g.Dict.Lookup(rdf.NewIRI("urn:wide:root"))
	q := &query.Query{Alpha: query.NoVar, Beta: query.Var(n - 1)}
	sum := query.EVar(0)
	q.Patterns = append(q.Patterns, query.Pattern{S: query.C(root), P: query.C(pid), O: query.V(0)})
	for v := 1; v < n; v++ {
		q.Patterns = append(q.Patterns, query.Pattern{S: query.V(query.Var(v - 1)), P: query.C(pid), O: query.V(query.Var(v))})
		sum = query.EArith(query.ArithAdd, sum, query.EVar(query.Var(v)))
	}
	q.Filters = []query.Filter{{Op: query.CmpGt, L: sum, R: query.ENum(lo + hi/2)}}
	return g, q
}
