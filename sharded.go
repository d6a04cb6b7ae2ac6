package kgexplore

import (
	"context"

	"kgexplore/internal/card"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/shard"
	"kgexplore/internal/sparql"
	"kgexplore/internal/walk"
)

// Re-exported sharding types (internal/shard).
type (
	// ShardManifest describes a complete on-disk shard set (.kgm).
	ShardManifest = shard.Manifest
	// ShardCache is a per-stratum suffix-aggregate cache shared by the
	// walker pool of one shard across scatter-gather runs.
	ShardCache = shard.Cache
	// ShardCacheStats reports hits and misses of one or more shard caches.
	ShardCacheStats = walk.CacheStats
	// ShardScatterOptions configures a scatter-gather Audit Join run.
	ShardScatterOptions = shard.ScatterOptions
	// ShardScatterStats reports per-shard allocation and cache statistics of
	// a scatter-gather run.
	ShardScatterStats = shard.ScatterStats
	// ShardScatter is the sequential scatter stepper (round-robin over
	// strata), drivable with Drive/RunWalks like any estimator.
	ShardScatter = shard.Scatter
)

// DefaultPartitioner is the partitioner new shard sets use unless told
// otherwise.
const DefaultPartitioner = shard.DefaultPartitioner

// NewShardCaches returns one empty cache per shard, for warm-starting
// successive scatter-gather runs of the same plan over a set with k shards.
func NewShardCaches(k int) []*ShardCache {
	caches := make([]*ShardCache, k)
	for i := range caches {
		caches[i] = shard.NewCache()
	}
	return caches
}

// ShardedDataset is the sharded counterpart of Dataset: the triples split
// into K disjoint shards by subject hash, each shard an ordinary index
// store. Exploration (parsing, compiling, charts) works identically; online
// aggregation runs as scatter-gather Audit Join with per-shard walker pools
// and stratified merging. Sharded datasets are immutable and safe for
// concurrent readers.
type ShardedDataset struct {
	set    *shard.Set
	schema explore.Schema
	// est is the configured cardinality estimator over all shard stores; nil
	// means the default span statistics (see UseEstimator).
	est card.Estimator
}

// UseEstimator switches the sharded dataset's tipping and budget decisions
// to the named cardinality estimator, constructed over all shard stores.
// Call it during setup, before the dataset is shared across goroutines.
func (d *ShardedDataset) UseEstimator(name string) error {
	stores := make([]*index.Store, d.set.K())
	for i := range stores {
		stores[i] = d.set.Store(i)
	}
	est, err := card.ByName(name, stores...)
	if err != nil {
		return err
	}
	d.est = est
	return nil
}

// EstimatorName reports which cardinality estimator the sharded dataset
// uses.
func (d *ShardedDataset) EstimatorName() string {
	if d.est != nil {
		return d.est.Name()
	}
	return EstimatorSpan
}

func newShardedDataset(set *shard.Set) (*ShardedDataset, error) {
	schema, err := explore.SchemaOf(set.Dict(), RootThing)
	if err != nil {
		set.Close()
		return nil, err
	}
	return &ShardedDataset{set: set, schema: schema}, nil
}

// BuildSharded splits the dataset into k shards under the named partitioner
// ("" selects the default). The dictionary is shared; the closure triples
// materialized by FromGraph are included.
func (d *Dataset) BuildSharded(k int, partitioner string) (*ShardedDataset, error) {
	part, err := shard.PartitionerByName(partitioner)
	if err != nil {
		return nil, err
	}
	set, err := shard.Build(d.graph, k, part)
	if err != nil {
		return nil, err
	}
	return &ShardedDataset{set: set, schema: d.schema}, nil
}

// LoadShardedDataset loads a shard set from its manifest (.kgm). With mmap
// true each shard snapshot is mapped zero-copy; the dataset must then not
// be used after Close. The load is all-or-nothing: a missing or corrupt
// shard fails the whole load.
func LoadShardedDataset(manifestPath string, mmap bool) (*ShardedDataset, error) {
	set, err := shard.Load(manifestPath, shard.LoadOptions{Mmap: mmap})
	if err != nil {
		return nil, err
	}
	return newShardedDataset(set)
}

// WriteShardedSnapshots writes every shard as a .kgs snapshot next to
// manifestPath and the manifest last, so a crash never leaves a manifest
// naming missing shards.
func (d *ShardedDataset) WriteShardedSnapshots(manifestPath, source string) (ShardManifest, error) {
	return shard.WriteSet(manifestPath, d.set, source)
}

// VerifyShardSet fully checks an on-disk shard set: manifest consistency,
// every shard's checksums, and that every triple sits in the shard its
// subject hashes to.
func VerifyShardSet(manifestPath string) (ShardManifest, error) {
	return shard.Verify(manifestPath)
}

// ReadShardManifest reads and validates a shard manifest without loading
// the shards it names.
func ReadShardManifest(manifestPath string) (ShardManifest, error) {
	return shard.ReadManifest(manifestPath)
}

// SetShardWorkers records worker-address placement in an existing manifest:
// workers[k] is the address of the kgworker serving shard k. Pass nil to
// clear. Placement is deployment metadata — it does not enter the config
// hash, so snapshots stay valid across address changes. The rewrite is
// atomic (temp file + rename).
func SetShardWorkers(manifestPath string, workers []string) (ShardManifest, error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return ShardManifest{}, err
	}
	m.Workers = workers
	if err := shard.WriteManifest(manifestPath, m); err != nil {
		return ShardManifest{}, err
	}
	return m, nil
}

// Close releases the per-shard snapshot mappings, if any.
func (d *ShardedDataset) Close() error { return d.set.Close() }

// NumShards returns the shard count K.
func (d *ShardedDataset) NumShards() int { return d.set.K() }

// Partitioner returns the name of the partitioner that placed the triples.
func (d *ShardedDataset) Partitioner() string { return d.set.Partitioner().Name() }

// NumTriples returns the total triple count across shards.
func (d *ShardedDataset) NumTriples() int { return d.set.NumTriples() }

// IndexBytes estimates the resident size of all shards' index orders.
func (d *ShardedDataset) IndexBytes() int64 { return d.set.EstimateBytes() }

// Dict returns the shared term dictionary.
func (d *ShardedDataset) Dict() *Dict { return d.set.Dict() }

// Root returns the initial exploration state: the root class bar.
func (d *ShardedDataset) Root() *ExploreState { return explore.Root(d.schema) }

// ParseQuery parses a query in the SPARQL fragment of Fig. 4, interning
// constants into the shared dictionary.
func (d *ShardedDataset) ParseQuery(src string) (*ParsedQuery, error) {
	return sparql.Parse(src, d.set.Dict())
}

// Compile plans a query for execution.
func (d *ShardedDataset) Compile(q *Query) (*Plan, error) { return query.Compile(q) }

// BarsOf converts a per-group result (and optional CI map) into bars sorted
// by descending count, decoding group IDs through the shared dictionary.
func (d *ShardedDataset) BarsOf(counts map[ID]float64, ci map[ID]float64) []Bar {
	return barsOf(d.set.Dict(), counts, ci)
}

// Exact evaluates the plan exactly over all shards (enumeration through the
// set's walk.Source, with the owner fast path).
func (d *ShardedDataset) Exact(pl *Plan) map[ID]float64 {
	res, _ := d.set.ExactCtx(context.Background(), pl)
	return res
}

// ExactCtx is Exact with cooperative cancellation.
func (d *ShardedDataset) ExactCtx(ctx context.Context, pl *Plan) (map[ID]float64, error) {
	return d.set.ExactCtx(ctx, pl)
}

// ExactUnionCtx evaluates a compiled union exactly over the sharded set:
// COUNT and SUM add across branches, AVG is the ratio of the summed
// numerators and denominators, and COUNT(DISTINCT) deduplicates (group, β)
// pairs across branches through one shared value set.
func (d *ShardedDataset) ExactUnionCtx(ctx context.Context, up *UnionPlan) (map[ID]float64, error) {
	return walk.ExactUnion(ctx, d.set, up)
}

// NewUnionScatter creates the stratified union stepper over the shards: one
// Scatter per branch, branches interleaved proportionally to estimated join
// size, Snapshot merging all (branch, shard) strata. COUNT(DISTINCT) unions
// are refused with ErrDistinctUnion; use ExactUnionCtx.
func (d *ShardedDataset) NewUnionScatter(up *UnionPlan, opts ShardScatterOptions) (*UnionEstimator, error) {
	u, _, err := d.newUnionScatter(up, opts)
	return u, err
}

func (d *ShardedDataset) newUnionScatter(up *UnionPlan, opts ShardScatterOptions) (*UnionEstimator, []*ShardScatter, error) {
	if opts.Estimator == nil {
		opts.Estimator = d.est
	}
	return shard.NewUnionScatter(d.set, up, opts)
}

// RunUnionScatter drives the union stepper under xopts and returns the final
// stratified-merged estimate. COUNT(DISTINCT) unions fall back to the exact
// cross-branch union, mirroring RunScatter's unowned-distinct policy.
func (d *ShardedDataset) RunUnionScatter(ctx context.Context, up *UnionPlan, opts ShardScatterOptions, xopts DriveOptions) (EstimateResult, error) {
	res, _, err := d.answerUnion(ctx, up, opts, xopts)
	return res, err
}

// answerUnion is RunUnionScatter with the branch walkers' tipping
// diagnostics.
func (d *ShardedDataset) answerUnion(ctx context.Context, up *UnionPlan, opts ShardScatterOptions, xopts DriveOptions) (EstimateResult, RunStats, error) {
	if up.Query.Distinct() {
		return exactResult(walk.ExactUnion(ctx, d.set, up))
	}
	u, scatters, err := d.newUnionScatter(up, opts)
	if err != nil {
		return EstimateResult{}, RunStats{}, err
	}
	return driveUnion(ctx, u, scatters, xopts)
}

// Health reports nothing beyond liveness for an immutable shard set.
func (d *ShardedDataset) Health(context.Context) BackendHealth { return BackendHealth{} }

// Answer evaluates the target over the shards: exactly by enumeration
// through the set's walk.Source, or online by scatter-gather Audit Join (RunScatter, its
// per-shard walker pools warm-started from spec.ShardCaches; union branches
// interleave on one stepper). A COUNT(DISTINCT) plan whose variable the
// partition key does not own, and every DISTINCT union, are answered
// exactly.
func (d *ShardedDataset) Answer(ctx context.Context, t Target, spec AnswerSpec, xopts DriveOptions) (EstimateResult, RunStats, error) {
	opts := ShardScatterOptions{Threshold: spec.Threshold, Seed: spec.Seed, Stratify: spec.Stratify}
	if t.Union != nil {
		up, err := query.CompileUnion(t.Union)
		if err != nil {
			return EstimateResult{}, RunStats{}, err
		}
		if spec.Exact {
			return exactResult(walk.ExactUnion(ctx, d.set, up))
		}
		return d.answerUnion(ctx, up, opts, xopts)
	}
	if spec.Exact {
		return exactResult(d.set.ExactCtx(ctx, t.Plan))
	}
	if spec.ShardCaches != nil {
		opts.Caches = spec.ShardCaches(t.Plan, d.NumShards())
	}
	res, sst, err := d.RunScatter(ctx, t.Plan, opts, xopts)
	st := RunStats{Tips: sst.Tips}
	if spec.Stratify {
		st.Strat = &StratifiedRunStats{Strata: sst.Strata}
	}
	return res, st, err
}

// NewScatter creates the sequential scatter-gather stepper for the plan:
// one walker per shard, stepped round-robin weighted by root cardinality.
// Drive it with Drive or RunWalks; Snapshot merges the strata.
func (d *ShardedDataset) NewScatter(pl *Plan, opts ShardScatterOptions) (*ShardScatter, error) {
	if opts.Estimator == nil {
		opts.Estimator = d.est
	}
	return shard.NewScatter(d.set, pl, opts)
}

// RunScatter runs scatter-gather Audit Join over the shards: per-shard
// walker pools sharing per-stratum caches, walks allocated proportionally
// to root cardinality, per-shard accumulators merged into globally unbiased
// estimates with stratified CIs. xopts.MaxWalks is the total walk budget
// across all shards. COUNT(DISTINCT) plans whose distinct variable is not
// owned by the partition key fall back to the exact union (see
// ShardScatterStats.ExactFallback).
func (d *ShardedDataset) RunScatter(ctx context.Context, pl *Plan, opts ShardScatterOptions, xopts DriveOptions) (EstimateResult, ShardScatterStats, error) {
	if opts.Estimator == nil {
		opts.Estimator = d.est
	}
	return shard.RunScatter(ctx, d.set, pl, opts, xopts)
}

// ShardScatterOwned reports whether the plan's COUNT(DISTINCT) variable is
// owned by the partition key — i.e. whether scatter-gather can estimate it
// online instead of falling back to the exact union.
func ShardScatterOwned(pl *Plan) bool { return shard.Owned(pl) }
