package shard

import (
	"context"
	"errors"
	"time"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/walk"
	"kgexplore/internal/wj"
)

// ScatterOptions configure a scatter-gather run.
type ScatterOptions struct {
	// Threshold is the Audit Join tipping point (core.Options semantics:
	// negative never tips, +Inf always tips). Callers normally pass
	// core.DefaultThreshold.
	Threshold float64
	// Seed is the base seed; each walker derives its own via
	// core.WorkerSeed, so runs are reproducible.
	Seed int64
	// WorkersPerShard sizes each stratum's walker pool (default 1).
	WorkersPerShard int
	// Caches, when non-nil with one entry per shard, warm-starts the
	// per-stratum suffix caches across requests (the server's reuse hook).
	// Entries must not be shared between strata: cached root counts are
	// stratum-local.
	Caches []*Cache
	// Estimator drives every walker's tipping oracle and the per-stratum
	// allocation weights; nil selects span statistics over the whole set.
	Estimator card.Estimator
	// Stratify nests semantic root strata (characteristic-set buckets, see
	// index.StratifyRoots) inside each shard stratum: every (shard ×
	// bucket) leaf gets its own walker, the Scatter stepper allocates walks
	// adaptively (Neyman, wj.NeymanAlloc) across leaves, and the leaves
	// flat-merge through wj.MergeStratified — disjoint leaves need no
	// hierarchical merge. Distinct plans and shards whose roots do not
	// stratify keep one uniform walker per shard.
	Stratify bool
	// MaxStrata caps the semantic strata per shard (< 2 selects
	// index.DefaultMaxStrata).
	MaxStrata int
	// PilotWalks/AdaptEvery tune the adaptive allocator (defaults 64/512).
	PilotWalks int64
	AdaptEvery int64
}

// SubStrata computes shard k's semantic root strata (index.StratifyRoots
// over its root span), or nil when the shard does not stratify: a distinct
// plan, a membership or empty root, a remote shard, a single bucket or
// fragmented runs. Such shards keep one uniform walker. Distributed workers
// call this to nest characteristic-set strata inside their own stratum.
func SubStrata(set *Set, pl *query.Plan, k, maxStrata int) []index.RootStratum {
	st0 := &pl.Steps[0]
	if k < 0 || k >= set.K() || set.stores[k] == nil || pl.Query.Distinct || st0.Kind == query.AccessMembership {
		return nil
	}
	span, ok := st0.ResolveSpan(set.stores[k], pl.NewBindings())
	if !ok {
		return nil
	}
	return index.StratifyRoots(set.stores[k], st0.Order, span, maxStrata)
}

// leafSpec names one walk stratum of a scatter run: a shard, optionally
// restricted to a semantic sub-stratum.
type leafSpec struct {
	shard int
	root  *index.RootStratum
}

// scatterLeaves expands the shard list into leaf strata under opts.
func scatterLeaves(set *Set, pl *query.Plan, opts ScatterOptions) []leafSpec {
	var leaves []leafSpec
	for k := 0; k < set.K(); k++ {
		var subs []index.RootStratum
		if opts.Stratify {
			subs = SubStrata(set, pl, k, opts.MaxStrata)
		}
		for i := range subs {
			leaves = append(leaves, leafSpec{shard: k, root: &subs[i]})
		}
		if len(subs) == 0 {
			leaves = append(leaves, leafSpec{shard: k})
		}
	}
	return leaves
}

// leafWalkers builds wps walkers per leaf: walker j of leaf l seeds from
// core.WorkerSeed(opts.Seed, l·wps+j), and the walkers of one shard share
// its stratum cache.
func leafWalkers(set *Set, pl *query.Plan, leaves []leafSpec, opts ScatterOptions, est card.Estimator, caches []*Cache, wps int) ([][]*walk.Walker, error) {
	pools := make([][]*walk.Walker, len(leaves))
	for l, leaf := range leaves {
		for j := 0; j < wps; j++ {
			w, err := NewWalker(set, pl, leaf.shard, WalkerOptions{
				Threshold: opts.Threshold,
				Seed:      core.WorkerSeed(opts.Seed, l*wps+j),
				Cache:     caches[leaf.shard],
				Estimator: est,
				Root:      leaf.root,
			})
			if err != nil {
				return nil, err
			}
			pools[l] = append(pools[l], w)
		}
	}
	return pools, nil
}

// stratumCaches returns one cache per shard: the caller's warm caches when
// it passed one per shard, fresh ones for the gaps.
func stratumCaches(caches []*Cache, k int) []*Cache {
	out := make([]*Cache, k)
	if len(caches) == k {
		copy(out, caches)
	}
	for i := range out {
		if out[i] == nil {
			out[i] = NewCache()
		}
	}
	return out
}

// ShardRunStats reports one stratum's share of a scatter-gather run.
type ShardRunStats struct {
	RootCard int   `json:"root_card"`
	Walks    int64 `json:"walks"`
	Tipped   int64 `json:"tipped"`
}

// ScatterStats reports a whole run: per-stratum allocation and walk
// counts, the summed suffix-cache traffic, merged tipping diagnostics,
// and which distinct path ran.
type ScatterStats struct {
	PerShard []ShardRunStats `json:"per_shard"`
	Cache    walk.CacheStats `json:"cache"`
	// Estimator names the cardinality estimator the run used.
	Estimator string `json:"estimator,omitempty"`
	// Tips merges every walker's estimate-vs-actual tipping diagnostics.
	Tips core.TipDiag `json:"tips"`
	// OwnedDistinct marks a COUNT(DISTINCT) served by the stratified
	// owned-variable estimator; ExactFallback marks one served by the
	// exact union (Set.ExactCtx) because the partition key does not own the
	// distinct variable.
	OwnedDistinct bool `json:"owned_distinct,omitempty"`
	ExactFallback bool `json:"exact_fallback,omitempty"`
	// Retries counts stratum re-allocations after worker loss. In-process
	// runs never retry; distributed runs (internal/dist) record each lost
	// worker's stratum being re-run on a survivor here.
	Retries int `json:"retries,omitempty"`
	// Strata is the number of leaf strata the run actually used: K without
	// semantic stratification, up to K × MaxStrata with it.
	Strata int `json:"strata,omitempty"`
}

// Scatter is the shard-merging driver as a single exec.Stepper: Step runs
// one walk on a stratum chosen by smooth weighted round-robin with weights
// proportional to root cardinality (deterministic stratified allocation),
// and Snapshot stratified-merges the per-stratum accumulators. One
// exec.Drive over a Scatter therefore preserves budgets, cancellation and
// progressive snapshots with no scatter-specific driving code; RunScatter
// adds per-stratum worker pools on top for parallel serving.
type Scatter struct {
	walkers []*walk.Walker
	weights []float64
	credit  []float64
	totalW  float64
	// alloc replaces the fixed-weight round-robin with adaptive Neyman
	// allocation when the run is semantically stratified; accs are the
	// walkers' accumulators it reads variances from.
	alloc *wj.NeymanAlloc
	accs  []*wj.Acc
}

// NewScatter builds one walker per non-empty leaf stratum (shards, or
// shard × characteristic-set bucket with opts.Stratify). Distinct plans
// whose variable the partition key does not own fail with
// ErrDistinctNotOwned.
func NewScatter(set *Set, pl *query.Plan, opts ScatterOptions) (*Scatter, error) {
	est := setEstimator(set, opts.Estimator)
	s := &Scatter{}
	leaves := scatterLeaves(set, pl, opts)
	pools, err := leafWalkers(set, pl, leaves, opts, est, stratumCaches(opts.Caches, set.K()), 1)
	if err != nil {
		return nil, err
	}
	stratified := false
	for li, leaf := range leaves {
		w := pools[li][0]
		if w.RootCard() == 0 && len(leaves) > 1 {
			continue // empty stratum contributes exactly zero
		}
		if leaf.root != nil {
			stratified = true
		}
		s.walkers = append(s.walkers, w)
		s.weights = append(s.weights, float64(w.RootCard()))
		s.totalW += float64(w.RootCard())
	}
	if stratified {
		s.accs = make([]*wj.Acc, len(s.walkers))
		for i, w := range s.walkers {
			s.accs[i] = w.Acc()
		}
		s.alloc = wj.NewNeymanAlloc(s.weights, opts.PilotWalks, opts.AdaptEvery)
	}
	if len(s.walkers) == 0 {
		// Every stratum is empty. Keep one walker so Step still advances the
		// walk counter (its walks all reject) and drivers terminate.
		s.walkers = append(s.walkers, pools[0][0])
		s.weights = append(s.weights, 1)
		s.totalW = 1
	}
	if s.totalW == 0 {
		for i := range s.weights {
			s.weights[i] = 1
		}
		s.totalW = float64(len(s.weights))
	}
	s.credit = make([]float64, len(s.walkers))
	return s, nil
}

// Step walks the stratum with the highest accumulated credit — over time
// each stratum receives walks in proportion to its root cardinality.
// Semantically stratified runs hand the choice to the adaptive Neyman
// allocator instead.
func (s *Scatter) Step() {
	if s.alloc != nil {
		s.walkers[s.alloc.Next(s.accs)].Step()
		return
	}
	best := 0
	for i := range s.walkers {
		s.credit[i] += s.weights[i]
		if s.credit[i] > s.credit[best] {
			best = i
		}
	}
	s.credit[best] -= s.totalW
	s.walkers[best].Step()
}

// Strata returns the number of leaf strata the stepper drives.
func (s *Scatter) Strata() int { return len(s.walkers) }

// Walks sums the stratum walk counts.
func (s *Scatter) Walks() int64 {
	var n int64
	for _, w := range s.walkers {
		n += w.Walks()
	}
	return n
}

// Snapshot returns the stratified-merged estimate with combined CIs.
func (s *Scatter) Snapshot() wj.Result { return wj.MergeStratified(s.Accs(), stats.Z95) }

// Accs returns the per-stratum accumulators Snapshot merges.
func (s *Scatter) Accs() []*wj.Acc {
	accs := make([]*wj.Acc, len(s.walkers))
	for i, w := range s.walkers {
		accs[i] = w.Acc()
	}
	return accs
}

// TipDiag merges every stratum walker's tipping diagnostics.
func (s *Scatter) TipDiag() core.TipDiag {
	var d core.TipDiag
	for _, w := range s.walkers {
		d.Merge(w.TipDiag())
	}
	return d
}

// NewUnionScatter estimates a UNION over the set: one Scatter per branch,
// interleaved by exec.Union with walk shares proportional to the estimated
// branch join sizes under opts.Estimator, and a Snapshot that merges ALL
// (branch, shard) strata with wj.MergeStratified — the merge stays at the
// accumulator level, so AVG unions work. It also returns the branch
// scatters, for their telemetry. opts.Caches is ignored: the shard suffix
// caches are keyed per plan, so branches cannot share them.
//
// COUNT(DISTINCT) unions are refused with query.ErrDistinctUnion: per-branch
// walks cannot observe cross-branch duplicates. Callers route those to
// walk.ExactUnion.
func NewUnionScatter(set *Set, up *query.UnionPlan, opts ScatterOptions) (*exec.Union, []*Scatter, error) {
	if up.Query.Distinct() {
		return nil, nil, query.ErrDistinctUnion
	}
	est := setEstimator(set, opts.Estimator)
	scatters := make([]*Scatter, len(up.Plans))
	steps := make([]exec.Stepper, len(up.Plans))
	strata := make([][]*wj.Acc, len(up.Plans))
	weights := make([]float64, len(up.Plans))
	for i, pl := range up.Plans {
		bopts := opts
		bopts.Caches = nil
		bopts.Estimator = est
		bopts.Seed = opts.Seed + int64(i)*1_000_003
		sc, err := NewScatter(set, pl, bopts)
		if err != nil {
			return nil, nil, err
		}
		scatters[i], steps[i], strata[i] = sc, sc, sc.Accs()
		weights[i] = est.JoinSize(pl).Value
	}
	return exec.NewStrataUnion(steps, strata, weights), scatters, nil
}

// RunScatter runs Audit Join scatter-gather over a sharded set: each
// stratum gets its own walker pool sharing one stratum cache, walks are
// allocated proportionally to per-shard root cardinality, and the merged
// progressive snapshots (and the final result) combine the strata with
// wj.MergeStratified — globally unbiased estimates with CIs summed in
// quadrature. xopts applies per worker except MaxWalks, which is the TOTAL
// walk budget split across strata by the allocation rule; Budget remains
// the shared wall-clock deadline and cancelling ctx stops every walker.
//
// COUNT(DISTINCT) plans run the stratified owned-variable estimator when
// Owned(pl) holds; otherwise the run degrades to the exact union
// (Set.ExactCtx), reported via ScatterStats.ExactFallback, with a single
// final snapshot so progressive consumers still complete.
func RunScatter(ctx context.Context, set *Set, pl *query.Plan, opts ScatterOptions, xopts exec.Options) (wj.Result, ScatterStats, error) {
	K := set.K()
	est := setEstimator(set, opts.Estimator)
	sstats := ScatterStats{PerShard: make([]ShardRunStats, K), Estimator: est.Name()}

	if pl.Query.Distinct && !Owned(pl) {
		sstats.ExactFallback = true
		counts, err := set.ExactCtx(ctx, pl)
		res := wj.Result{Estimates: counts, CI: make(map[rdf.ID]float64)}
		if res.Estimates == nil {
			res.Estimates = make(map[rdf.ID]float64)
		}
		if err == nil && xopts.OnSnapshot != nil {
			xopts.OnSnapshot(exec.Progress{Seq: 1, Snapshot: res, Final: true})
		}
		return res, sstats, err
	}
	sstats.OwnedDistinct = pl.Query.Distinct

	wps := opts.WorkersPerShard
	if wps < 1 {
		wps = 1
	}
	caches := stratumCaches(opts.Caches, K)

	// Expand the shards into leaf strata (one per shard, or shard ×
	// characteristic-set bucket under opts.Stratify), build the pools and
	// read the per-leaf root cardinalities that drive the allocation.
	leaves := scatterLeaves(set, pl, opts)
	L := len(leaves)
	sstats.Strata = L
	walkers, err := leafWalkers(set, pl, leaves, opts, est, caches, wps)
	if err != nil {
		return wj.Result{}, sstats, err
	}
	cards := make([]int, L)
	total := 0
	for li, leaf := range leaves {
		cards[li] = walkers[li][0].RootCard()
		sstats.PerShard[leaf.shard].RootCard += cards[li]
		total += cards[li]
	}
	finish := func() wj.Result {
		accs := make([]*wj.Acc, 0, L)
		for li, leaf := range leaves {
			if cards[li] == 0 {
				continue
			}
			m := wj.NewAcc()
			for _, w := range walkers[li] {
				m.Merge(w.Acc())
				sstats.PerShard[leaf.shard].Tipped += w.Tipped()
				sstats.Tips.Merge(w.TipDiag())
			}
			sstats.PerShard[leaf.shard].Walks += m.N
			accs = append(accs, m)
		}
		for k := 0; k < K; k++ {
			cs := caches[k].Stats()
			sstats.Cache.Hits += cs.Hits
			sstats.Cache.Misses += cs.Misses
		}
		return wj.MergeStratified(accs, stats.Z95)
	}
	if total == 0 {
		// Empty root pattern everywhere: the exact answer is zero.
		res := finish()
		if xopts.OnSnapshot != nil {
			xopts.OnSnapshot(exec.Progress{Seq: 1, Snapshot: res, Final: true})
		}
		return res, sstats, nil
	}

	// Proportional allocation over the non-empty leaves (see Allocate).
	// Pools run as independent goroutines behind exec.Drive, so cross-pool
	// Neyman reallocation does not apply here; the single-threaded Scatter
	// stepper adapts, see NewScatter.
	alloc := Allocate(cards, xopts.MaxWalks, xopts.Batch, wps)
	var pools [][]*walk.Walker
	var perLeaf []exec.Options
	for k := range leaves {
		if cards[k] == 0 {
			continue
		}
		o := xopts
		o.OnSnapshot = nil
		if xopts.MaxWalks > 0 {
			o.MaxWalks = alloc[k].MaxWalks
		}
		o.Batch = alloc[k].Batch
		pools = append(pools, walkers[k])
		perLeaf = append(perLeaf, o)
	}

	// Progressive snapshots merge the walkers' latest published clones, as
	// core.RunParallelStats does.
	onSnap := xopts.OnSnapshot
	start := time.Now()
	seq := 0
	stopped := false
	var tick func([]*wj.Acc) bool
	if onSnap != nil && xopts.Interval > 0 {
		tick = func(accs []*wj.Acc) bool {
			merged := wj.MergeStratified(accs, stats.Z95)
			seq++
			stopped = !onSnap(exec.Progress{
				Seq:      seq,
				Elapsed:  time.Since(start),
				Walks:    merged.Walks,
				Snapshot: merged,
			})
			return !stopped
		}
	}
	errs := exec.DrivePools(ctx, pools, perLeaf, xopts.Interval, tick)

	res := finish()
	for _, err := range errs {
		if err != nil && !(stopped && errors.Is(err, context.Canceled)) {
			return res, sstats, err
		}
	}
	if onSnap != nil && !stopped {
		seq++
		onSnap(exec.Progress{
			Seq:      seq,
			Elapsed:  time.Since(start),
			Walks:    res.Walks,
			Snapshot: res,
			Final:    true,
		})
	}
	return res, sstats, nil
}
