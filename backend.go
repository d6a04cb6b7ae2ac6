package kgexplore

import (
	"context"

	"kgexplore/internal/exec"
)

// Backend is one served store answering the paper's unit of work, a chart
// request: *Dataset (monolithic), *ShardedDataset (in-process shards),
// *DistDataset (a kgworker fleet) and *LiveDataset (a delta overlay) all
// implement it, so a server holds one Backend and has one request path.
// Each store's routing policy — which requests it answers exactly although
// an online engine was asked for — lives behind its own Answer.
type Backend interface {
	NumTriples() int
	IndexBytes() int64
	Dict() *Dict
	Root() *ExploreState
	ParseQuery(string) (*ParsedQuery, error)
	Compile(*Query) (*Plan, error)
	BarsOf(counts, ci map[ID]float64) []Bar
	EstimatorName() string
	// NumShards is the shard count of a partitioned store, 0 otherwise.
	NumShards() int
	// Health reports the store's own state for /healthz; on a distributed
	// store it polls every worker.
	Health(ctx context.Context) BackendHealth
	// Answer evaluates a compiled plan or a union under spec, exactly or
	// online. Online runs are driven under xopts; with xopts.OnSnapshot set
	// they stream progressive snapshots. Exact answers carry no CIs.
	Answer(ctx context.Context, t Target, spec AnswerSpec, xopts DriveOptions) (EstimateResult, RunStats, error)
}

// Target is what Answer evaluates: a compiled plan, or a UNION (compiled by
// the backend). Exactly one field is set.
type Target struct {
	Plan  *Plan
	Union *UnionQuery
}

// AnswerSpec selects how Answer evaluates its target.
type AnswerSpec struct {
	// Exact answers exactly with Engine (stores other than *Dataset have one
	// exact engine and ignore Engine). Otherwise the run is online.
	Exact  bool
	Engine ExactEngine
	// Threshold is the online tipping point: DefaultTippingThreshold for
	// Audit Join, negative for Wander Join (walks never tip).
	Threshold float64
	Seed      int64
	// Stratify runs semantic-aware stratified sampling (walk roots
	// stratified by characteristic-set bucket).
	Stratify bool
	// SharedCache and ShardCaches, when set, hand out the warm-start caches
	// of a plan's signature: the shared CTJ cache of monolithic Audit Join
	// runs and the per-shard suffix caches of scatter-gather runs.
	SharedCache func(*Plan) *SharedCTJCache
	ShardCaches func(*Plan, int) []*ShardCache
}

// RunStats is the telemetry of one Answer call. Fields a run does not
// produce stay zero.
type RunStats struct {
	// Cache is the CTJ cache traffic of a monolithic Audit Join runner and
	// SharedCache the merged view of the warm-start cache it used.
	Cache, SharedCache *CTJCacheStats
	// Tips merges the run's estimate-vs-actual tipping diagnostics.
	Tips TipDiagnostics
	// Strat is the stratification telemetry of a stratified run.
	Strat *StratifiedRunStats
	// Dist is the distribution telemetry of a distributed run.
	Dist *DistRunStats
	// Live is the overlay state of a live store at the end of the run.
	Live *LiveStats
}

// BackendHealth is a store's self-reported state.
type BackendHealth struct {
	// Workers is a distributed fleet's per-worker health; DistRetries and
	// DistRuns are its lifetime re-allocation and run counts.
	Workers     []DistWorkerHealth
	DistRetries int64
	DistRuns    int64
	// Live is a live store's overlay, compaction and WAL telemetry.
	Live *LiveStats
	// LastError is the most recent background error (live WAL or
	// compaction).
	LastError string
}

// Degraded reports whether a worker is down or a background error is
// pending.
func (h BackendHealth) Degraded() bool {
	for _, w := range h.Workers {
		if !w.Up {
			return true
		}
	}
	return h.LastError != ""
}

// exactResult wraps an exact answer: counts without CIs or walks.
func exactResult(counts map[ID]float64, err error) (EstimateResult, RunStats, error) {
	return EstimateResult{Estimates: counts}, RunStats{}, err
}

// driveUnion drives a union estimator under xopts and merges its branches'
// tipping diagnostics.
func driveUnion[B interface{ TipDiag() TipDiagnostics }](ctx context.Context, u *UnionEstimator, branches []B, xopts DriveOptions) (EstimateResult, RunStats, error) {
	rep, err := exec.Drive(ctx, u, xopts)
	var st RunStats
	for _, b := range branches {
		st.Tips.Merge(b.TipDiag())
	}
	return rep.Final, st, err
}

var (
	_ Backend = (*Dataset)(nil)
	_ Backend = (*ShardedDataset)(nil)
	_ Backend = (*DistDataset)(nil)
	_ Backend = (*LiveDataset)(nil)
)
