package core

import (
	"context"
	"math"
	"testing"

	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/testkit"
)

// TestWideInterfaceComputesUncached: boundaries whose interface outgrows
// the CTJ cache key are computed uncached instead of panicking, so exact
// CTJ and Audit Join (sequential and parallel) still return LFTJ's answer.
// The chain's root is a single triple, so a walk that tips at once is exact.
func TestWideInterfaceComputesUncached(t *testing.T) {
	g, q := testkit.WideChain(11)
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	st := index.Build(g)
	want := lftj.Evaluate(st, pl)
	if len(want) == 0 {
		t.Fatal("empty fixture")
	}
	if got := ctj.Evaluate(st, pl); !testkit.MapsEqual(got, want, 1e-9) {
		t.Fatalf("ctj %v, lftj %v", got, want)
	}
	r := New(st, pl, Options{Threshold: math.Inf(1), Seed: 1})
	exec.RunN(r, 50)
	if got := r.Snapshot().Estimates; !testkit.MapsEqual(got, want, 1e-9) {
		t.Fatalf("aj %v, lftj %v", got, want)
	}
	res, _, err := RunParallelStats(context.Background(), st, pl,
		Options{Threshold: math.Inf(1), Seed: 2}, 2, exec.Options{MaxWalks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.MapsEqual(res.Estimates, want, 1e-9) {
		t.Fatalf("parallel aj %v, lftj %v", res.Estimates, want)
	}
	// The default threshold walks deeper before tipping; it must not panic.
	exec.RunN(New(st, pl, Options{Threshold: DefaultThreshold, Seed: 3}), 200)
}
