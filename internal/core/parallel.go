package core

import (
	"context"
	"errors"
	"time"

	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// workerSeedStride separates the derived per-worker seeds. Any odd constant
// far from zero works; 1,000,003 (a prime) keeps the streams of math/rand
// sources seeded base, base+stride, base+2·stride… effectively independent —
// rand.NewSource scrambles the seed, so nearby seeds already decorrelate, and
// the stride guards against workers colliding on the exact same seed.
const workerSeedStride = 1_000_003

// WorkerSeed derives the deterministic seed of parallel worker w from a base
// seed. RunParallel and the kgbench parallel benchmarks share this helper so
// a bench run at fixed seeds reproduces the exact walks of a RunParallel call
// with the same base. The walks of distinct workers are treated as
// independent; see workerSeedStride for why distinct seeds suffice.
func WorkerSeed(base int64, w int) int64 {
	return base + int64(w)*workerSeedStride
}

// ParallelStats reports cache effectiveness of one RunParallel call: the
// per-worker CTJ session stats in worker order, and — when the run used a
// shared cache — the merged stats of that cache. With a shared cache the
// duplicated work shows up as the gap between ΣPerWorker misses at W workers
// and the misses of a single-worker run: single-flight keeps it near zero.
type ParallelStats struct {
	PerWorker []ctj.CacheStats
	// Shared is the merged shared-cache view; zero when SharedUsed is false.
	Shared ctj.CacheStats
	// SharedUsed reports whether the workers shared one CTJ cache.
	SharedUsed bool
	// Tips merges the workers' estimate-vs-actual tipping diagnostics.
	Tips TipDiag
	// Tipped totals the walks terminated by the tipping point.
	Tipped int64
}

// RunParallel runs Audit Join with workers independent runners (each with
// its own derived seed, see WorkerSeed) driven by the shared execution
// layer: all workers honor the one context, so cancelling it stops every
// core promptly, and xopts applies per worker (Budget is the shared
// wall-clock deadline; MaxWalks caps each worker's walks). Because the walks
// are i.i.d., the merged estimator is identical in distribution to a single
// runner with the combined walk count; wall-clock time scales down with the
// number of cores.
//
// Unless opts.NoSharedCache is set, the workers share one concurrency-safe
// CTJ cache (opts.Shared when the caller supplies one — e.g. the server's
// cross-request warm start — or a fresh cache otherwise): recurring suffix
// counts, existence checks, aggregates and path probabilities are computed
// once per run instead of once per worker, with single-flight deduplicating
// concurrent misses on the same key.
//
// When xopts.OnSnapshot is set, the callback receives progressive *merged*
// snapshots on a dedicated publisher goroutine at every xopts.Interval —
// each worker publishes a clone of its accumulator at its own snapshot
// cadence, and the publisher folds the latest clones together — plus one
// Final snapshot after all workers stop. Publishing does not depend on any
// particular worker staying alive: a worker that exhausts MaxWalks early
// leaves the merged stream flowing. Returning false from the callback stops
// all workers.
//
// The returned result merges the workers' final accumulators. The error is
// ctx.Err() when the context ended the run early (the partial merged result
// is still returned alongside it), nil otherwise.
func RunParallel(ctx context.Context, store *index.Store, pl *query.Plan, opts Options, workers int, xopts exec.Options) (wj.Result, error) {
	res, _, err := RunParallelStats(ctx, store, pl, opts, workers, xopts)
	return res, err
}

// RunParallelStats is RunParallel, additionally reporting the per-worker and
// merged shared-cache statistics — the observability hook for the server
// payloads, the CLI and the kgbench shared-vs-private ablation.
func RunParallelStats(ctx context.Context, store *index.Store, pl *query.Plan, opts Options, workers int, xopts exec.Options) (wj.Result, ParallelStats, error) {
	if workers < 1 {
		workers = 1
	}
	if opts.Shared == nil && !opts.NoSharedCache {
		opts.Shared = ctj.NewSharedCache()
	}
	if opts.NoSharedCache {
		opts.Shared = nil
	}

	runners := make([]*Runner, workers)
	for w := range runners {
		o := opts
		o.Seed = WorkerSeed(opts.Seed, w)
		runners[w] = New(store, pl, o)
	}
	wopts := xopts
	wopts.OnSnapshot = nil

	// The merged progressive stream folds the workers' latest clones on its
	// own goroutine, so it survives any individual worker finishing early.
	onSnap := xopts.OnSnapshot
	start := time.Now()
	seq := 0
	stopped := false
	var tick func([]*wj.Acc) bool
	if onSnap != nil && xopts.Interval > 0 {
		tick = func(accs []*wj.Acc) bool {
			m := wj.NewAcc()
			for _, a := range accs {
				m.Merge(a)
			}
			merged := m.Snapshot(stats.Z95)
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
	errs := exec.DrivePools(ctx, [][]*Runner{runners}, []exec.Options{wopts}, xopts.Interval, tick)

	merged := wj.NewAcc()
	pstats := ParallelStats{PerWorker: make([]ctj.CacheStats, workers)}
	for i, r := range runners {
		merged.Merge(r.Acc())
		pstats.PerWorker[i] = r.CacheStats()
		pstats.Tips.Merge(r.TipDiag())
		pstats.Tipped += r.Tipped()
	}
	if opts.Shared != nil {
		pstats.Shared = opts.Shared.Stats()
		pstats.SharedUsed = true
	}
	res := merged.Snapshot(stats.Z95)
	for _, err := range errs {
		if err != nil && !(stopped && errors.Is(err, context.Canceled)) {
			return res, pstats, err
		}
	}
	// One complete Final snapshot after the workers stop — the merged
	// equivalent of exec.Drive's final emit (skipped when the callback
	// already asked to stop).
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
	return res, pstats, nil
}
