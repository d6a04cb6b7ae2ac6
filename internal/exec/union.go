package exec

import (
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// AccStepper is a Stepper that exposes its walk accumulator. All the walk
// runners (wj.Runner, core.Runner, the shard and live walkers) satisfy it;
// the accumulator access is what lets Union merge branches as strata.
type AccStepper interface {
	Stepper
	Acc() *wj.Acc
}

// Union estimates a UNION query by stratified sampling: each branch is
// sampled by its own stepper, the union estimate is the sum of the
// per-branch estimates, and the confidence intervals merge in quadrature
// (wj.MergeStratified) — branches are independent sub-populations exactly
// like the shards of a partitioned store. A branch may itself be stratified
// (a scatter over shards): its strata then enter the merge individually, so
// the strata of the union design are the cross product of branches and
// their strata and AVG unions merge at the accumulator level too.
//
// Step interleaves the branches deterministically in proportion to their
// weights (pass the branches' estimated root cardinalities, or nil for equal
// shares): each call steps the branch with the largest walk deficit relative
// to its weight. Proportional allocation spends walks where the population
// is large, which for near-uniform per-walk variance is close to the Neyman
// optimum, and determinism keeps runs reproducible under a fixed seed.
//
// Union's accumulators belong to the branch steppers. It is not safe for
// concurrent use.
type Union struct {
	branches []Stepper
	strata   [][]*wj.Acc
	weights  []float64
	wsum     float64
}

// NewUnion builds the union stepper with one stratum per branch. weights
// must be nil (equal shares) or len(branches) long; non-positive weights are
// lifted to the smallest positive one so every branch keeps getting sampled
// (a stratum starved of walks would silently contribute a zero estimate).
func NewUnion(branches []AccStepper, weights []float64) *Union {
	steps := make([]Stepper, len(branches))
	strata := make([][]*wj.Acc, len(branches))
	for i, br := range branches {
		steps[i], strata[i] = br, []*wj.Acc{br.Acc()}
	}
	return NewStrataUnion(steps, strata, weights)
}

// NewStrataUnion is NewUnion over stratified branches: strata[i] lists the
// accumulators branch i's estimate merges (they must stay the same objects
// for the stepper's lifetime), and Snapshot merges every branch's strata in
// branch order.
func NewStrataUnion(branches []Stepper, strata [][]*wj.Acc, weights []float64) *Union {
	w := make([]float64, len(branches))
	minPos := 0.0
	for i := range w {
		if weights != nil {
			w[i] = weights[i]
		}
		if w[i] > 0 && (minPos == 0 || w[i] < minPos) {
			minPos = w[i]
		}
	}
	if minPos == 0 {
		minPos = 1
	}
	wsum := 0.0
	for i := range w {
		if w[i] <= 0 {
			w[i] = minPos
		}
		wsum += w[i]
	}
	return &Union{branches: branches, strata: strata, weights: w, wsum: wsum}
}

// Step performs one walk on the branch with the largest weighted deficit:
// after T total walks, branch i's proportional share is (T+1)·w_i/Σw, and
// the branch lagging it the most goes next. Ties break on the lower index,
// keeping the interleave fully deterministic.
func (u *Union) Step() {
	share := float64(u.Walks()) + 1
	best, bestDeficit := 0, 0.0
	for i, br := range u.branches {
		d := share*u.weights[i]/u.wsum - float64(br.Walks())
		if i == 0 || d > bestDeficit {
			best, bestDeficit = i, d
		}
	}
	u.branches[best].Step()
}

// Walks returns the total walks across all branches.
func (u *Union) Walks() int64 {
	var n int64
	for _, br := range u.branches {
		n += br.Walks()
	}
	return n
}

// Snapshot merges every branch's strata accumulators.
func (u *Union) Snapshot() wj.Result {
	var accs []*wj.Acc
	for _, st := range u.strata {
		accs = append(accs, st...)
	}
	return wj.MergeStratified(accs, stats.Z95)
}
