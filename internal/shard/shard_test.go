package shard

import (
	"context"
	"testing"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/testkit"
)

func mustPart(t *testing.T, name string) Partitioner {
	t.Helper()
	p, err := PartitionerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildSet(t *testing.T, g *rdf.Graph, k int) *Set {
	t.Helper()
	s, err := Build(g, k, mustPart(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func exactOf(t *testing.T, s *Set, pl *query.Plan) map[rdf.ID]float64 {
	t.Helper()
	got, err := s.ExactCtx(context.Background(), pl)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBuildPartitionInvariants(t *testing.T) {
	g := testkit.RandomGraph(7, 40, 4, 30, 500)
	for _, k := range []int{1, 2, 4, 8} {
		s := buildSet(t, g, k)
		if s.K() != k {
			t.Fatalf("K=%d: got %d shards", k, s.K())
		}
		if s.NumTriples() != g.Len() {
			t.Fatalf("K=%d: %d triples across shards, graph has %d", k, s.NumTriples(), g.Len())
		}
		// Every triple must sit in the shard its subject hashes to.
		for i := 0; i < k; i++ {
			for _, tr := range s.Store(i).Triples(0) {
				if own := s.Owner(tr.S); own != i {
					t.Fatalf("K=%d: shard %d holds subject %d owned by shard %d", k, i, tr.S, own)
				}
			}
		}
	}
	if _, err := Build(g, 0, mustPart(t, "")); err == nil {
		t.Fatal("Build accepted 0 shards")
	}
	if _, err := PartitionerByName("nope/v9"); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}

// TestExactMatchesBruteForce pins the resolver: the sharded exact
// enumeration must reproduce the nested-loop oracle for grouped counts,
// SUM, AVG and DISTINCT at several shard counts.
func TestExactMatchesBruteForce(t *testing.T) {
	g := testkit.RandomGraph(11, 30, 3, 25, 350)
	for _, distinct := range []bool{false, true} {
		q := testkit.ChainQuery(g, []rdf.ID{30, 31}, true, distinct)
		want := testkit.BruteForce(g, q)
		pl, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4} {
			got := exactOf(t, buildSet(t, g, k), pl)
			if !testkit.MapsEqual(got, want, 1e-9) {
				t.Fatalf("distinct=%v K=%d: exact %v, want %v", distinct, k, got, want)
			}
		}
	}
	for _, agg := range []query.AggFunc{query.AggSum, query.AggAvg} {
		q := testkit.ChainQuery(g, []rdf.ID{30, 31}, true, false)
		q.Agg = agg
		want := testkit.BruteForce(g, q)
		pl, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		got := exactOf(t, buildSet(t, g, 4), pl)
		if !testkit.MapsEqual(got, want, 1e-6) {
			t.Fatalf("agg=%v: exact %v, want %v", agg, got, want)
		}
	}
}

func TestExactCtxCancellation(t *testing.T) {
	g := testkit.RandomGraph(3, 40, 3, 30, 800)
	q := testkit.ChainQuery(g, []rdf.ID{40, 41}, true, false)
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExactCtx(ctx, pl); err == nil {
		// The check fires every 4096 rows; tiny results may finish first.
		t.Log("enumeration finished before the cancellation check (small fixture)")
	}
}

// ownedDistinctQuery returns a plan whose distinct variable is the subject
// of the root pattern: COUNT(DISTINCT ?s) GROUP BY ?a over
// ?s <p0> ?m . ?m <p1> ?a.
func ownedDistinctQuery(t *testing.T, p0, p1 rdf.ID) (*query.Query, *query.Plan) {
	t.Helper()
	q := &query.Query{
		Alpha:    2,
		Beta:     0,
		Distinct: true,
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(p0), O: query.V(1)},
			{S: query.V(1), P: query.C(p1), O: query.V(2)},
		},
	}
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return q, pl
}

func TestOwnedCondition(t *testing.T) {
	g := testkit.RandomGraph(5, 20, 3, 15, 200)
	_, pl := ownedDistinctQuery(t, 20, 21)
	if !Owned(pl) {
		t.Fatal("root-subject distinct variable should be owned")
	}
	// ChainQuery's β is the chain's leaf, not the root subject: not owned.
	q := testkit.ChainQuery(g, []rdf.ID{20, 21}, true, true)
	pl2, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if Owned(pl2) {
		t.Fatal("leaf distinct variable must not be owned")
	}
	// Non-distinct plans are never "owned".
	q3 := testkit.ChainQuery(g, []rdf.ID{20, 21}, true, false)
	pl3, err := query.Compile(q3)
	if err != nil {
		t.Fatal(err)
	}
	if Owned(pl3) {
		t.Fatal("non-distinct plan reported owned")
	}
}

func TestDistinctFallbackIsExact(t *testing.T) {
	g := testkit.RandomGraph(9, 25, 3, 20, 300)
	q := testkit.ChainQuery(g, []rdf.ID{25, 26}, true, true) // β = leaf: not owned
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g, 4)
	res, st, err := RunScatter(context.Background(), s, pl, ScatterOptions{Seed: 1}, execOptsN(500))
	if err != nil {
		t.Fatal(err)
	}
	if !st.ExactFallback {
		t.Fatal("non-owned distinct did not fall back to exact")
	}
	want := testkit.BruteForce(g, q)
	if !testkit.MapsEqual(res.Estimates, want, 1e-9) {
		t.Fatalf("fallback result %v, want %v", res.Estimates, want)
	}
}
