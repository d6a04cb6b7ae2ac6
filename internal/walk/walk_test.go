package walk_test

import (
	"context"
	"math"
	"testing"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/testkit"
	"kgexplore/internal/walk"
)

// twoParts is a fake two-part store: parts[0] and parts[1] hold disjoint
// triple sets, and the triples of parts[1] listed in dead are not live.
// Draws may land on them (d counts them), so the walker must reject.
type twoParts struct {
	parts [2]*index.Store
	dead  map[rdf.Triple]bool
}

func (s *twoParts) Source(pl *query.Plan) (walk.Source, error) {
	return &twoPartSource{s, pl}, nil
}

type twoPartSource struct {
	*twoParts
	pl *query.Plan
}

func (s *twoPartSource) live(src int, t rdf.Triple) bool { return src == 0 || !s.dead[t] }

func (s *twoPartSource) Resolve(i int, b query.Bindings, buf []walk.Part) ([]walk.Part, int) {
	st := &s.pl.Steps[i]
	d := 0
	for k, store := range s.parts {
		sp, ok := st.ResolveSpan(store, b)
		switch {
		case !ok:
		case st.Kind == query.AccessMembership:
			if s.live(k, st.BoundTriple(b)) {
				return append(buf, walk.Part{Src: k}), 1
			}
		default:
			buf = append(buf, walk.Part{Src: k, Span: sp})
			d += sp.Len()
		}
	}
	return buf, d
}

func (s *twoPartSource) At(i int, p walk.Part, n int) (rdf.Triple, bool) {
	t := s.parts[p.Src].At(s.pl.Steps[i].Order, p.Span, n)
	return t, s.live(p.Src, t)
}

func (s *twoPartSource) Read(i int, p walk.Part, off, max int, buf []rdf.Triple) ([]rdf.Triple, int) {
	n := min(max, p.Span.Len()-off)
	for j := off; j < off+n; j++ {
		if t, ok := s.At(i, p, j); ok {
			buf = append(buf, t)
		}
	}
	return buf, n
}

func (s *twoPartSource) Numeric(id rdf.ID) (float64, bool) { return s.parts[0].Numeric(id) }
func (s *twoPartSource) Err() error                        { return nil }

// splitGraph puts every other triple of g in part 1 and marks every third
// of those dead; it returns the store and the graph of live triples.
func splitGraph(g *rdf.Graph) (*twoParts, *rdf.Graph) {
	var halves [2][]rdf.Triple
	liveG := &rdf.Graph{Dict: g.Dict}
	dead := make(map[rdf.Triple]bool)
	for i, t := range g.Triples {
		halves[i%2] = append(halves[i%2], t)
		if i%2 == 1 && (i/2)%3 == 0 {
			dead[t] = true
			continue
		}
		liveG.Triples = append(liveG.Triples, t)
	}
	s := &twoParts{dead: dead}
	for k := range halves {
		s.parts[k] = index.Build(&rdf.Graph{Dict: g.Dict, Triples: halves[k]})
	}
	return s, liveG
}

func mustCompile(t testing.TB, q *query.Query) *query.Plan {
	t.Helper()
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func newWalker(t testing.TB, st walk.Store, pl *query.Plan, opts walk.Options) *walk.Walker {
	t.Helper()
	src, err := st.Source(pl)
	if err != nil {
		t.Fatal(err)
	}
	w, err := walk.New(src, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDeadDrawsStayUnbiased pins the zero-weight rejection argument: d
// counts dead candidates, a draw that lands on one rejects the walk, and
// the seeded COUNT/SUM/AVG estimates still converge to the totals over the
// live triples alone. Exact enumeration sees live triples only.
func TestDeadDrawsStayUnbiased(t *testing.T) {
	g := testkit.RandomGraph(8, 30, 3, 20, 700)
	st, liveG := splitGraph(g)
	est := card.NewSpanStats(st.parts[:]...)
	for _, agg := range []query.AggFunc{query.AggCount, query.AggSum, query.AggAvg} {
		q := testkit.ChainQuery(g, []rdf.ID{30, 31}, true, false)
		q.Agg = agg
		pl := mustCompile(t, q)
		want := testkit.BruteForce(liveG, q)
		if len(want) == 0 {
			t.Fatalf("agg=%v: empty fixture", agg)
		}
		got, err := walk.Exact(context.Background(), st, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !testkit.MapsEqual(got, want, 1e-9) {
			t.Fatalf("agg=%v: exact %v, want %v", agg, got, want)
		}
		for _, th := range []float64{-1, core.DefaultThreshold} {
			w := newWalker(t, st, pl, walk.Options{Threshold: th, Seed: 7, Estimator: est, Part: walk.AllParts})
			exec.RunN(w, 200000)
			if w.Acc().Rejected == 0 {
				t.Fatalf("agg=%v th=%v: no walk rejected", agg, th)
			}
			snap := w.Snapshot()
			for a, ex := range want {
				if d := math.Abs(snap.Estimates[a] - ex); d > 0.05*math.Abs(ex)+2*snap.CI[a] {
					t.Errorf("agg=%v th=%v group %d: estimate %.4f ± %.4f, live total %.4f",
						agg, th, a, snap.Estimates[a], snap.CI[a], ex)
				}
			}
		}
	}
}

// TestWideInterfaceComputesUncached: past eight interface values the
// suffix cache key overflows, and the walker computes those suffixes
// uncached instead of refusing. The chain's root is one triple, so a walk
// that tips at once is exact.
func TestWideInterfaceComputesUncached(t *testing.T) {
	g, q := testkit.WideChain(11)
	pl := mustCompile(t, q)
	if n := len(pl.Iface(9)); n <= 8 {
		t.Fatalf("fixture interface at boundary 9 has %d variables, want > 8", n)
	}
	st, liveG := splitGraph(g)
	want := lftj.Evaluate(index.Build(liveG), pl)
	if len(want) == 0 {
		t.Fatal("empty fixture")
	}
	got, err := walk.Exact(context.Background(), st, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.MapsEqual(got, want, 1e-9) {
		t.Fatalf("exact %v, want %v", got, want)
	}
	est := card.NewSpanStats(st.parts[:]...)
	w := newWalker(t, st, pl, walk.Options{Threshold: math.Inf(1), Seed: 1, Estimator: est, Part: walk.AllParts})
	exec.RunN(w, 100)
	if got := w.Snapshot().Estimates; !testkit.MapsEqual(got, want, 1e-9) {
		t.Fatalf("tipped walks %v, want %v", got, want)
	}
	// Default tipping walks deeper and finishes at overflowing boundaries.
	exec.RunN(newWalker(t, st, pl, walk.Options{Threshold: core.DefaultThreshold, Seed: 2, Estimator: est, Part: walk.AllParts}), 500)
}
