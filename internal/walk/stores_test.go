package walk_test

import (
	"math"
	"testing"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/index"
	"kgexplore/internal/live"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
	"kgexplore/internal/testkit"
	"kgexplore/internal/walk"
)

// benchFixture is a mid-sized random graph and a grouped two-hop COUNT.
func benchFixture(b *testing.B) (*rdf.Graph, *query.Plan) {
	g := testkit.RandomGraph(42, 2000, 4, 1000, 40000)
	q := testkit.ChainQuery(g, []rdf.ID{2000, 2001}, true, false)
	pl, err := query.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	return g, pl
}

// BenchmarkWalkShard measures one Audit Join walk of a 4-shard scatter
// (smooth weighted round-robin over the shard strata).
func BenchmarkWalkShard(b *testing.B) {
	g, pl := benchFixture(b)
	part, err := shard.PartitionerByName("")
	if err != nil {
		b.Fatal(err)
	}
	set, err := shard.Build(g, 4, part)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := shard.NewScatter(set, pl, shard.ScatterOptions{Threshold: core.DefaultThreshold, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Step()
	}
}

// BenchmarkWalkLive measures one Audit Join walk over a live view whose
// delta holds a third of the triples and whose base has tombstones.
func BenchmarkWalkLive(b *testing.B) {
	g, pl := benchFixture(b)
	cut := 2 * len(g.Triples) / 3
	base := index.Build(&rdf.Graph{Dict: g.Dict, Triples: g.Triples[:cut]})
	ls, err := live.NewStore(base, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var ops []live.Op
	for _, t := range g.Triples[cut:] {
		ops = append(ops, live.Op{T: t})
	}
	for i := 0; i < cut; i += 10 {
		ops = append(ops, live.Op{Del: true, T: g.Triples[i]})
	}
	if err := ls.Apply(ops); err != nil {
		b.Fatal(err)
	}
	w, err := live.NewWalker(ls.View(), pl, live.WalkerOptions{Threshold: core.DefaultThreshold, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// TestSuffixOracleMatchesMonolith: the tipping oracle over a sharded set's
// Source widths (walk.Widths) agrees with the single-store suffix estimator:
// the disjoint partition makes set-level cardinalities add up.
func TestSuffixOracleMatchesMonolith(t *testing.T) {
	g := testkit.RandomGraph(13, 30, 3, 25, 400)
	pl := mustCompile(t, testkit.ChainQuery(g, []rdf.ID{30, 31}, true, false))
	st := testkit.BuildStore(g)
	mono := card.NewSpanStats(st).NewSuffix(pl, card.StoreResolver{Store: st, Plan: pl})
	b := pl.NewBindings()
	// Bind the root from the full store and compare suffix estimates.
	sp, ok := pl.Steps[0].ResolveSpan(st, b)
	if !ok {
		t.Skip("empty root")
	}
	pl.Steps[0].Bind(st.At(pl.Steps[0].Order, sp, sp.Len()/2), b)
	want := mono.Estimate(0, b)

	part, err := shard.PartitionerByName("")
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(g, 4, part)
	if err != nil {
		t.Fatal(err)
	}
	src, err := set.Source(pl)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*index.Store, set.K())
	for k := range stores {
		stores[k] = set.Store(k)
	}
	got := card.NewSpanStats(stores...).NewSuffix(pl, walk.Widths(src)).Estimate(0, b)
	if want == 0 {
		if got != 0 {
			t.Fatalf("oracle %v, monolith 0", got)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > 0.5 {
		t.Fatalf("set-level suffix estimate %v too far from monolith %v", got, want)
	}
}
