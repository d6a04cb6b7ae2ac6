// Package kgexplore is a library for interactive exploration of RDF
// knowledge graphs via online aggregation, reproducing "Exploration of
// Knowledge Graphs via Online Aggregation" (Kalinsky, Hogan, Mishali,
// Etsion, Kimelfeld; ICDE 2022).
//
// The package exposes:
//
//   - Dataset: an in-memory RDF graph with the four trie index orders and
//     the materialized subclass closure the paper's engines assume;
//   - the exploration model of §III (bar charts, five expansions) through
//     Dataset.Root and Chart;
//   - four query-evaluation strategies for the exploration fragment:
//     the exact Baseline (pairwise hash joins, the paper's Virtuoso stand-
//     in), LFTJ and CTJ (worst-case-optimal trie joins, without and with
//     caching), and the online-aggregation estimators WanderJoin and
//     AuditJoin — the latter being the paper's contribution;
//   - a parser for the SPARQL fragment of Fig. 4 (Dataset.ParseQuery).
//
// Internal building blocks are re-exported here via type aliases so that
// the public API is usable without importing internal packages.
package kgexplore

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"kgexplore/internal/baseline"
	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
	"kgexplore/internal/wj"
)

// Re-exported data-model types.
type (
	// Term is a decoded RDF term (IRI, literal or blank node).
	Term = rdf.Term
	// ID is a dictionary-encoded term identifier.
	ID = rdf.ID
	// Graph is a dictionary plus encoded triples, the pre-index form.
	Graph = rdf.Graph
	// Dict maps terms to dense IDs and back.
	Dict = rdf.Dict
)

// Re-exported query types.
type (
	// Query is an exploration query (Fig. 4 of the paper).
	Query = query.Query
	// Plan is a compiled query with per-step access paths.
	Plan = query.Plan
	// Var is a query variable index.
	Var = query.Var
	// Pattern is one triple pattern.
	Pattern = query.Pattern
	// Filter is one FILTER constraint of a query (comparison over variables,
	// numeric constants and terms, with bound-variable arithmetic).
	Filter = query.Filter
	// UnionQuery is a UNION of exploration queries sharing one SELECT clause.
	UnionQuery = query.UnionQuery
	// UnionPlan is a compiled union: one Plan per branch.
	UnionPlan = query.UnionPlan
	// ParsedQuery is a parsed SPARQL fragment with its variable names. Its
	// Branches field carries every UNION branch (one entry for plain
	// queries); IsUnion and Union expose the multi-branch view.
	ParsedQuery = sparql.Parsed
)

// ErrDistinctUnion reports a COUNT(DISTINCT) union handed to an online
// estimator; callers route those to the exact path (ExactUnion).
var ErrDistinctUnion = query.ErrDistinctUnion

// Re-exported exploration types.
type (
	// ExploreState is a selected bar in an exploration session.
	ExploreState = explore.State
	// ExploreOp is one of the five bar expansions.
	ExploreOp = explore.Op
	// BarKind is the kind of a bar/chart.
	BarKind = explore.BarKind
)

// Exploration ops and bar kinds (Fig. 3).
const (
	OpSubclass = explore.OpSubclass
	OpOutProp  = explore.OpOutProp
	OpInProp   = explore.OpInProp
	OpObject   = explore.OpObject
	OpSubject  = explore.OpSubject

	ClassBar   = explore.ClassBar
	OutPropBar = explore.OutPropBar
	InPropBar  = explore.InPropBar
)

// Re-exported engine types.
type (
	// WanderJoin runs Wander Join online aggregation.
	WanderJoin = wj.Runner
	// AuditJoin runs the paper's Audit Join online aggregation.
	AuditJoin = core.Runner
	// AuditJoinOptions configures AuditJoin (tipping threshold, seed, shared
	// cache).
	AuditJoinOptions = core.Options
	// EstimateResult is a snapshot of an online aggregation.
	EstimateResult = wj.Result
	// CTJCacheStats reports CTJ cache effectiveness (hits and misses per
	// cache kind); AuditJoin.CacheStats returns one per runner and
	// SharedCTJCache.Stats the merged view.
	CTJCacheStats = ctj.CacheStats
	// SharedCTJCache is a concurrency-safe CTJ cache (lock-striped, with
	// per-key single-flight) shared by several AuditJoin runners over plans
	// with the same Signature: parallel workers of one run, or successive
	// requests for the same exploration query.
	SharedCTJCache = ctj.SharedCache
	// CardEstimator is the unified cardinality-estimation interface
	// (internal/card): every planning, tipping and budget decision routes
	// through one of its implementations.
	CardEstimator = card.Estimator
	// TipDiagnostics aggregates estimate-vs-actual observations at Audit
	// Join tipping points.
	TipDiagnostics = core.TipDiag
	// StratifiedAuditJoin runs semantic-aware stratified Audit Join: walk
	// roots stratified by characteristic-set bucket with Neyman-allocated
	// walk budgets (see internal/core.Stratified).
	StratifiedAuditJoin = core.Stratified
	// StratifiedAuditJoinOptions configures StratifiedAuditJoin.
	StratifiedAuditJoinOptions = core.StratifiedOptions
	// StratifiedRunStats reports a stratified run's shape: strata count,
	// fallback reason, reallocation count and per-stratum telemetry.
	StratifiedRunStats = core.StratifiedStats
)

// Estimator names accepted by UseEstimator and the -estimator flags.
const (
	// EstimatorSpan is the default: exact span statistics composed under
	// per-join-variable independence.
	EstimatorSpan = card.EstimatorSpan
	// EstimatorSummary is the typed graph summary: conditional fan-outs
	// between characteristic-set buckets where the query shape allows.
	EstimatorSummary = card.EstimatorSummary
)

// UseEstimator switches the dataset's planning, tipping and auto-mode
// decisions to the named cardinality estimator. Call it during setup, before
// the dataset is shared across goroutines.
func (d *Dataset) UseEstimator(name string) error {
	est, err := card.ByName(name, d.store)
	if err != nil {
		return err
	}
	d.est = est
	return nil
}

// EstimatorName reports which cardinality estimator the dataset uses.
func (d *Dataset) EstimatorName() string { return d.estimator().Name() }

// estimator returns the configured estimator, defaulting to span statistics
// (constructed fresh — SpanStats is stateless, so this never races).
func (d *Dataset) estimator() CardEstimator {
	if d.est != nil {
		return d.est
	}
	return card.NewSpanStats(d.store)
}

// NewSharedCTJCache returns an empty shared CTJ cache; pass it via
// AuditJoinOptions.Shared to warm-start runners across calls.
func NewSharedCTJCache() *SharedCTJCache { return ctj.NewSharedCache() }

// Re-exported streaming-execution types (internal/exec): both WanderJoin and
// AuditJoin are Steppers, and Drive is the single driving loop behind every
// budgeted run.
type (
	// Stepper is the unit of online estimation: one walk per Step.
	Stepper = exec.Stepper
	// DriveOptions configures one Drive call (budget, snapshot interval,
	// walk cap, batch size, streaming callback).
	DriveOptions = exec.Options
	// DriveProgress is one streamed snapshot of a running drive.
	DriveProgress = exec.Progress
	// DriveReport summarizes a completed (or cancelled) drive.
	DriveReport = exec.Report
)

// Drive runs an online estimator under the given options, honoring ctx:
// cancelling the context stops the run between walk batches and still
// returns a consistent report. See DriveOptions for budgets, walk caps and
// streaming snapshots.
func Drive(ctx context.Context, s Stepper, opts DriveOptions) (DriveReport, error) {
	return exec.Drive(ctx, s, opts)
}

// RunWalks performs exactly n walks on an estimator — the bounded-count
// companion of Drive for warmup and deterministic runs.
func RunWalks(s Stepper, n int) {
	exec.RunN(s, n)
}

// GlobalGroup is the group key of ungrouped results.
const GlobalGroup = rdf.NoID

// DefaultTippingThreshold is Audit Join's default tipping point.
const DefaultTippingThreshold = core.DefaultThreshold

// NoVar marks the absence of a variable (e.g. Query.Alpha on ungrouped
// queries).
const NoVar = query.NoVar

// NewGraph returns an empty graph for programmatic construction.
func NewGraph() *Graph { return rdf.NewGraph() }

// ReadNTriples parses an N-Triples stream into a graph.
func ReadNTriples(r io.Reader) (*Graph, error) { return rdf.ReadNTriples(r) }

// WriteNTriples serializes a graph as N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error { return rdf.WriteNTriples(w, g) }

// ReadTurtle parses a Turtle stream (the practical subset documented in the
// rdf package) into a graph.
func ReadTurtle(r io.Reader) (*Graph, error) { return rdf.ReadTurtle(r) }

// LoadTurtle reads a Turtle stream and prepares a dataset rooted at
// owl:Thing.
func LoadTurtle(r io.Reader) (*Dataset, error) {
	g, err := rdf.ReadTurtle(r)
	if err != nil {
		return nil, err
	}
	return FromGraph(g, RootThing)
}

// WriteSnapshot writes the dataset's graph (including derived closure
// triples) in the compact binary snapshot format; LoadSnapshot restores it
// much faster than re-parsing N-Triples.
func (d *Dataset) WriteSnapshot(w io.Writer) error { return rdf.WriteBinary(w, d.graph) }

// LoadSnapshot reads a binary snapshot written by WriteSnapshot and prepares
// the dataset (re-materializing the closure is a no-op on snapshots that
// already contain it).
func LoadSnapshot(r io.Reader) (*Dataset, error) {
	g, err := rdf.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return FromGraph(g, RootThing)
}

// FromStore prepares a dataset from an already-built index store — the
// snapshot-load path, where re-running Build would defeat the point. The
// store must contain the materialized subclass closure (stores built through
// FromGraph or written by kgsnap do). The dataset's graph view aliases the
// store's SPO order, which is exactly the deduplicated (S,P,O)-sorted triple
// set.
func FromStore(st *index.Store, rootIRI string) (*Dataset, error) {
	schema, err := explore.SchemaOf(st.Dict(), rootIRI)
	if err != nil {
		return nil, err
	}
	g := &rdf.Graph{Dict: st.Dict(), Triples: st.Triples(index.SPO)}
	return &Dataset{graph: g, store: st, schema: schema}, nil
}

// StoreSnapshot is a dataset loaded from a store snapshot (see
// internal/snap): the prepared dataset plus the resources backing it. For
// mmap loads the index arrays alias the mapping, so the dataset must not be
// used after Close; Close on copy loads is a no-op.
type StoreSnapshot struct {
	Dataset *Dataset
	// Mmap reports whether the load was zero-copy over a live mapping.
	Mmap bool
	// Source is the provenance string recorded when the snapshot was
	// written.
	Source string
	loaded *snap.Loaded
}

// Close releases the snapshot's mapping, if any. Every reader of the
// dataset must be drained first.
func (s *StoreSnapshot) Close() error { return s.loaded.Close() }

// WriteStoreSnapshotFile writes the dataset's fully built index store as a
// store snapshot (atomic temp-file-and-rename): dictionary, the four sorted
// orders, span levels, statistics and the numeric cache. Loading it skips
// index.Build entirely, unlike the graph-level WriteSnapshot.
func (d *Dataset) WriteStoreSnapshotFile(path, source string) error {
	return d.WriteStoreSnapshotFileOpts(path, source, StoreSnapshotOptions{})
}

// StoreSnapshotOptions controls WriteStoreSnapshotFileOpts.
type StoreSnapshotOptions struct {
	// OmitSummary writes a version-1 snapshot without the typed graph
	// summary section — byte-compatible with pre-v2 readers, at the cost of
	// a lazy summary rebuild if the file is later served with -estimator
	// summary.
	OmitSummary bool
}

// WriteStoreSnapshotFileOpts is WriteStoreSnapshotFile with explicit options
// (kgsnap build -nosummary).
func (d *Dataset) WriteStoreSnapshotFileOpts(path, source string, o StoreSnapshotOptions) error {
	return snap.WriteFileOpts(path, d.store,
		&snap.Meta{Source: source, CreatedUnix: time.Now().Unix()},
		snap.WriteOptions{OmitSummary: o.OmitSummary})
}

// LoadStoreSnapshotFile loads a store snapshot written by
// WriteStoreSnapshotFile or kgsnap. With mmap true the index arrays alias
// the file mapping (zero-copy, page-cache-bounded startup, falling back to a
// copy load on platforms without mmap); with mmap false the snapshot is
// fully verified and copied into private memory.
func LoadStoreSnapshotFile(path string, mmap bool) (*StoreSnapshot, error) {
	mode := snap.ModeCopy
	if mmap {
		mode = snap.ModeAuto
	}
	l, err := snap.LoadFile(path, snap.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	ds, err := FromStore(l.Store, RootThing)
	if err != nil {
		l.Close()
		return nil, err
	}
	ds.mapped = l.Mmap
	return &StoreSnapshot{Dataset: ds, Mmap: l.Mmap, Source: l.Meta.Source, loaded: l}, nil
}

// Explain renders a compiled plan's access paths and cardinality estimates
// under the dataset's estimator.
func (d *Dataset) Explain(pl *Plan) string { return pl.Explain(d.estimator()) }

// Dataset is an indexed knowledge graph ready for exploration: the graph
// with its subclass closure materialized, the four trie index orders, and
// the vocabulary schema. Datasets are immutable and safe for concurrent
// readers (individual engine runners are not; create one per goroutine).
type Dataset struct {
	graph  *rdf.Graph
	store  *index.Store
	schema explore.Schema
	// mapped marks a store loaded zero-copy from a snapshot mapping: its
	// dictionary's strings alias the mapping.
	mapped bool
	// est is the configured cardinality estimator; nil means the default
	// span statistics (see UseEstimator).
	est card.Estimator
}

// FromGraph prepares a dataset from a graph: it materializes the subclass
// closure under the given root class IRI (use rdf.OWLThing via RootThing for
// the default), deduplicates, and builds the indexes. The graph must carry
// rdf:type triples. The graph is retained and modified (closure triples are
// added).
func FromGraph(g *Graph, rootIRI string) (*Dataset, error) {
	explore.MaterializeClosure(g, rootIRI)
	schema, err := explore.SchemaOf(g.Dict, rootIRI)
	if err != nil {
		return nil, err
	}
	return &Dataset{graph: g, store: index.Build(g), schema: schema}, nil
}

// RootThing is the default root class IRI (owl:Thing).
const RootThing = rdf.OWLThing

// LoadNTriples reads an N-Triples stream and prepares a dataset rooted at
// owl:Thing.
func LoadNTriples(r io.Reader) (*Dataset, error) {
	g, err := rdf.ReadNTriples(r)
	if err != nil {
		return nil, err
	}
	return FromGraph(g, RootThing)
}

// LoadFile loads a dataset from a file, choosing the format by extension:
// ".ttl" Turtle, ".kgx" binary graph snapshot (WriteSnapshot), ".kgs" store
// snapshot (loaded in copy mode; use LoadStoreSnapshotFile for the mmap
// fast path), anything else N-Triples.
func LoadFile(path string) (*Dataset, error) {
	if strings.HasSuffix(path, ".kgs") {
		ss, err := LoadStoreSnapshotFile(path, false)
		if err != nil {
			return nil, err
		}
		return ss.Dataset, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	switch {
	case strings.HasSuffix(path, ".ttl"):
		return LoadTurtle(br)
	case strings.HasSuffix(path, ".kgx"):
		return LoadSnapshot(br)
	default:
		return LoadNTriples(br)
	}
}

// GenerateDBpediaSim builds the synthetic DBpedia-like dataset at the given
// scale (1.0 is roughly 1.2M triples; see DESIGN.md §3).
func GenerateDBpediaSim(scale float64) (*Dataset, error) {
	return generate(kggen.DBpediaSim(scale))
}

// GenerateLGDSim builds the synthetic LinkedGeoData-like dataset.
func GenerateLGDSim(scale float64) (*Dataset, error) {
	return generate(kggen.LGDSim(scale))
}

func generate(cfg kggen.Config) (*Dataset, error) {
	g, schema, err := kggen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{graph: g, store: index.Build(g), schema: schema}, nil
}

// Graph returns the underlying graph (including derived closure triples).
func (d *Dataset) Graph() *Graph { return d.graph }

// Dict returns the term dictionary.
func (d *Dataset) Dict() *Dict { return d.graph.Dict }

// NumTriples returns the number of indexed triples.
func (d *Dataset) NumTriples() int { return d.store.NumTriples() }

// IndexBytes estimates the resident size of the four index orders.
func (d *Dataset) IndexBytes() int64 { return d.store.EstimateBytes() }

// Root returns the initial exploration state: the root class bar.
func (d *Dataset) Root() *ExploreState { return explore.Root(d.schema) }

// ExpansionsOf returns the legal expansions from the state's bar kind
// (the transition system of Fig. 3).
func ExpansionsOf(s *ExploreState) []ExploreOp { return explore.Expansions(s.Kind) }

// ParseQuery parses a query in the SPARQL fragment of Fig. 4, interning
// constants into the dataset's dictionary.
func (d *Dataset) ParseQuery(src string) (*ParsedQuery, error) {
	return sparql.Parse(src, d.graph.Dict)
}

// PrintQuery renders a query in the fragment's concrete syntax.
func (d *Dataset) PrintQuery(q *Query, names map[string]Var) string {
	return sparql.Print(q, d.graph.Dict, names)
}

// Compile plans a query for execution.
func (d *Dataset) Compile(q *Query) (*Plan, error) { return query.Compile(q) }

// ExactEngine selects one of the exact evaluation strategies.
type ExactEngine int

const (
	// EngineCTJ is Cached Trie Join, the paper's fastest exact engine.
	EngineCTJ ExactEngine = iota
	// EngineLFTJ is Leapfrog Trie Join without caching.
	EngineLFTJ
	// EngineBaseline is the pairwise hash-join engine (Virtuoso stand-in).
	EngineBaseline
)

func (e ExactEngine) String() string {
	switch e {
	case EngineCTJ:
		return "ctj"
	case EngineLFTJ:
		return "lftj"
	case EngineBaseline:
		return "baseline"
	default:
		return fmt.Sprintf("ExactEngine(%d)", int(e))
	}
}

// Exact evaluates the plan exactly with the chosen engine, returning
// per-group counts (GlobalGroup for ungrouped queries).
func (d *Dataset) Exact(pl *Plan, engine ExactEngine) (map[ID]float64, error) {
	return d.ExactCtx(context.Background(), pl, engine)
}

// ExactCtx is Exact under a context: every engine checks ctx periodically
// inside its enumeration loops, so a long exact run aborts promptly with
// ctx.Err() when the caller goes away.
func (d *Dataset) ExactCtx(ctx context.Context, pl *Plan, engine ExactEngine) (map[ID]float64, error) {
	switch engine {
	case EngineCTJ:
		return ctj.EvaluateCtxEst(ctx, d.store, pl, d.est)
	case EngineLFTJ:
		return lftj.EvaluateCtx(ctx, d.store, pl)
	case EngineBaseline:
		return baseline.EvaluateCtx(ctx, d.store, pl)
	default:
		return nil, fmt.Errorf("kgexplore: unknown engine %v", engine)
	}
}

// CompileUnion validates and plans every branch of a union.
func (d *Dataset) CompileUnion(u *UnionQuery) (*UnionPlan, error) {
	return query.CompileUnion(u)
}

// ExactUnion evaluates a compiled union exactly with the chosen engine,
// under SPARQL bag semantics: COUNT and SUM add across branches, AVG is the
// ratio of the summed numerators and denominators, and COUNT(DISTINCT)
// deduplicates (group, β) pairs across branches.
func (d *Dataset) ExactUnion(up *UnionPlan, engine ExactEngine) (map[ID]float64, error) {
	return d.ExactUnionCtx(context.Background(), up, engine)
}

// ExactUnionCtx is ExactUnion under a context.
func (d *Dataset) ExactUnionCtx(ctx context.Context, up *UnionPlan, engine ExactEngine) (map[ID]float64, error) {
	switch engine {
	case EngineCTJ:
		return ctj.EvaluateUnionCtxEst(ctx, d.store, up, d.est)
	case EngineLFTJ:
		return lftj.EvaluateUnionCtx(ctx, d.store, up)
	case EngineBaseline:
		return (&baseline.Engine{}).EvaluateUnionCtx(ctx, d.store, up)
	default:
		return nil, fmt.Errorf("kgexplore: unknown engine %v", engine)
	}
}

// UnionEstimator estimates a UNION online: each branch is one stratum run by
// its own Audit Join runner, walks are interleaved in proportion to the
// branches' estimated sizes, and Snapshot merges the strata with summed
// estimates and quadrature CIs (wj.MergeStratified). It implements Stepper,
// so Drive and RunWalks apply.
type UnionEstimator = exec.Union

// NewUnionEstimator creates the stratified union estimator. COUNT(DISTINCT)
// unions are refused with ErrDistinctUnion — per-branch walks cannot observe
// cross-branch duplicates — and must use ExactUnion.
func (d *Dataset) NewUnionEstimator(up *UnionPlan, seed int64) (*UnionEstimator, error) {
	u, _, err := d.newUnion(up, core.DefaultThreshold, seed)
	return u, err
}

// newUnion builds the union estimator with Audit Join branch runners tipping
// at threshold (negative: Wander Join walks), returning the runners too.
func (d *Dataset) newUnion(up *UnionPlan, threshold float64, seed int64) (*UnionEstimator, []*AuditJoin, error) {
	if up.Query.Distinct() {
		return nil, nil, query.ErrDistinctUnion
	}
	runners := make([]*AuditJoin, len(up.Plans))
	branches := make([]exec.AccStepper, len(up.Plans))
	weights := make([]float64, len(up.Plans))
	for i, pl := range up.Plans {
		runners[i] = core.New(d.store, pl, core.Options{
			Threshold: threshold,
			Seed:      seed + int64(i)*1_000_003,
			Estimator: d.est,
		})
		branches[i] = runners[i]
		weights[i] = d.estimator().JoinSize(pl).Value
	}
	return exec.NewUnion(branches, weights), runners, nil
}

// NumShards is 0: a Dataset is one store.
func (d *Dataset) NumShards() int { return 0 }

// Health reports nothing beyond liveness for an immutable store.
func (d *Dataset) Health(context.Context) BackendHealth { return BackendHealth{} }

// Answer evaluates the target with spec.Engine, or online: Audit Join
// warm-started from spec.SharedCache, Wander Join at a negative threshold,
// and stratified Audit Join (tipping or not) under spec.Stratify. UNION
// branches run Audit Join at spec.Threshold; COUNT(DISTINCT) unions are
// answered exactly.
func (d *Dataset) Answer(ctx context.Context, t Target, spec AnswerSpec, xopts DriveOptions) (EstimateResult, RunStats, error) {
	if t.Union != nil {
		up, err := query.CompileUnion(t.Union)
		if err != nil {
			return EstimateResult{}, RunStats{}, err
		}
		if spec.Exact || up.Query.Distinct() {
			return exactResult(d.ExactUnionCtx(ctx, up, spec.Engine))
		}
		u, runners, err := d.newUnion(up, spec.Threshold, spec.Seed)
		if err != nil {
			return EstimateResult{}, RunStats{}, err
		}
		return driveUnion(ctx, u, runners, xopts)
	}
	if spec.Exact {
		return exactResult(d.ExactCtx(ctx, t.Plan, spec.Engine))
	}
	r, stats := d.runner(t.Plan, spec)
	rep, err := exec.Drive(ctx, r, xopts)
	return rep.Final, stats(), err
}

// runner builds the online stepper for spec and a reader of its telemetry,
// to be called once the stepper is quiescent.
func (d *Dataset) runner(pl *Plan, spec AnswerSpec) (Stepper, func() RunStats) {
	opts := AuditJoinOptions{Threshold: spec.Threshold, Seed: spec.Seed}
	if spec.Threshold >= 0 && spec.SharedCache != nil {
		opts.Shared = spec.SharedCache(pl)
	}
	cacheStats := func(run CTJCacheStats, shared *SharedCTJCache, st RunStats) RunStats {
		st.Cache = &run
		if shared != nil {
			ss := shared.Stats()
			st.SharedCache = &ss
		}
		return st
	}
	switch {
	case spec.Stratify:
		r := d.NewStratifiedAuditJoin(pl, StratifiedAuditJoinOptions{Options: opts})
		return r, func() RunStats {
			strat := r.Stats()
			return cacheStats(r.CacheStats(), r.SharedCache(), RunStats{Tips: r.TipDiag(), Strat: &strat})
		}
	case spec.Threshold < 0:
		return d.NewWanderJoin(pl, spec.Seed), func() RunStats { return RunStats{} }
	default:
		r := d.NewAuditJoin(pl, opts)
		return r, func() RunStats {
			return cacheStats(r.CacheStats(), r.SharedCache(), RunStats{Tips: r.TipDiag()})
		}
	}
}

// AutoResult is what Auto returns: the per-group counts, whether they are
// exact, and the CI map when they are estimates.
type AutoResult struct {
	Counts map[ID]float64
	CI     map[ID]float64 // nil when exact
	Exact  bool
	Walks  int64 // walks performed when estimated
}

// AutoExactLimit is the estimated join size below which Auto answers
// exactly with CTJ instead of estimating: small joins are cheaper to just
// compute, and the answer is then precise — the hybrid strategy an
// exploration UI wants by default.
const AutoExactLimit = 1 << 16

// Auto evaluates the plan with the strategy an interactive UI would pick:
// exactly with CTJ when the statistics estimate the join to be small,
// otherwise online with Audit Join under the time budget.
func (d *Dataset) Auto(pl *Plan, budget time.Duration, seed int64) (AutoResult, error) {
	return d.AutoCtx(context.Background(), pl, budget, seed)
}

// AutoCtx is Auto under a context: a cancelled exact branch returns
// ctx.Err(); a cancelled estimation branch returns the estimate accumulated
// so far alongside ctx.Err().
func (d *Dataset) AutoCtx(ctx context.Context, pl *Plan, budget time.Duration, seed int64) (AutoResult, error) {
	if d.estimator().JoinSize(pl).Value <= AutoExactLimit {
		counts, err := ctj.EvaluateCtxEst(ctx, d.store, pl, d.est)
		if err != nil {
			return AutoResult{}, err
		}
		return AutoResult{Counts: counts, Exact: true}, nil
	}
	r := core.New(d.store, pl, core.Options{Threshold: core.DefaultThreshold, Seed: seed, Estimator: d.est})
	rep, err := exec.Drive(ctx, r, exec.Options{Budget: budget, Batch: 128})
	snap := rep.Final
	return AutoResult{Counts: snap.Estimates, CI: snap.CI, Walks: snap.Walks}, err
}

// NewWanderJoin creates a Wander Join estimator for the plan.
func (d *Dataset) NewWanderJoin(pl *Plan, seed int64) *WanderJoin {
	return wj.New(d.store, pl, seed)
}

// NewAuditJoin creates an Audit Join estimator for the plan. The dataset's
// configured cardinality estimator drives the tipping oracle unless the
// options name one explicitly.
func (d *Dataset) NewAuditJoin(pl *Plan, opts AuditJoinOptions) *AuditJoin {
	if opts.Estimator == nil {
		opts.Estimator = d.est
	}
	return core.New(d.store, pl, opts)
}

// NewStratifiedAuditJoin creates a stratified Audit Join estimator: walk
// roots are stratified by their subject's characteristic-set bucket and the
// walk budget is Neyman-allocated across strata. Plans that cannot be
// stratified (DISTINCT, membership roots, single-bucket spans) degrade to a
// uniform runner; Stats().Fallback records why.
func (d *Dataset) NewStratifiedAuditJoin(pl *Plan, opts StratifiedAuditJoinOptions) *StratifiedAuditJoin {
	if opts.Estimator == nil {
		opts.Estimator = d.est
	}
	return core.NewStratified(d.store, pl, opts)
}

// PathStep records one exploration interaction portably (by decoded term),
// so a session can be replayed on another dataset.
type PathStep = explore.PathStep

// Replay applies a recorded exploration path to this dataset.
func (d *Dataset) Replay(steps []PathStep) (*ExploreState, error) {
	return explore.Replay(d.schema, d.graph.Dict, steps)
}

// CompareBar pairs one category's counts across two datasets.
type CompareBar struct {
	Category Term
	A, B     float64 // exact counts in the two datasets (0 when absent)
}

// CompareChart replays the same exploration path on two datasets and
// evaluates the same expansion on both (exactly, with CTJ), aligning the
// bars by category term — the paper's "contrast multiple knowledge graphs"
// use-case (§VI). Bars are sorted by descending A count, then B, then
// category.
func CompareChart(a, b *Dataset, steps []PathStep, op ExploreOp) ([]CompareBar, error) {
	sa, err := a.Replay(steps)
	if err != nil {
		return nil, fmt.Errorf("dataset A: %w", err)
	}
	sb, err := b.Replay(steps)
	if err != nil {
		return nil, fmt.Errorf("dataset B: %w", err)
	}
	barsA, err := a.Chart(sa, op)
	if err != nil {
		return nil, fmt.Errorf("dataset A: %w", err)
	}
	barsB, err := b.Chart(sb, op)
	if err != nil {
		return nil, fmt.Errorf("dataset B: %w", err)
	}
	merged := map[Term]*CompareBar{}
	order := []Term{}
	for _, bar := range barsA {
		merged[bar.Category] = &CompareBar{Category: bar.Category, A: bar.Count}
		order = append(order, bar.Category)
	}
	for _, bar := range barsB {
		if m, ok := merged[bar.Category]; ok {
			m.B = bar.Count
		} else {
			merged[bar.Category] = &CompareBar{Category: bar.Category, B: bar.Count}
			order = append(order, bar.Category)
		}
	}
	out := make([]CompareBar, 0, len(order))
	for _, term := range order {
		out = append(out, *merged[term])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A > out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B > out[j].B
		}
		return out[i].Category.Value < out[j].Category.Value
	})
	return out, nil
}

// Bar is one bar of a rendered chart.
type Bar struct {
	Category Term
	Count    float64
	CI       float64 // 0.95 half-width; zero for exact evaluation
}

// Chart evaluates the expansion op on the state exactly (with CTJ) and
// returns the bars sorted by descending count — what the paper's UI
// renders. For online aggregation, compile state.Query(op) and drive a
// WanderJoin/AuditJoin runner directly.
func (d *Dataset) Chart(s *ExploreState, op ExploreOp) ([]Bar, error) {
	q, err := s.Query(op)
	if err != nil {
		return nil, err
	}
	pl, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	counts, err := ctj.EvaluateCtxEst(context.Background(), d.store, pl, d.est)
	if err != nil {
		return nil, err
	}
	return d.BarsOf(counts, nil), nil
}

// BarsOf converts a per-group result (and optional CI map) into bars sorted
// by descending count, decoding group IDs through the dictionary.
func (d *Dataset) BarsOf(counts map[ID]float64, ci map[ID]float64) []Bar {
	return barsOf(d.graph.Dict, counts, ci)
}

// barsOf is the dictionary-parameterized core of BarsOf, shared by Dataset
// and ShardedDataset.
func barsOf(dict *Dict, counts map[ID]float64, ci map[ID]float64) []Bar {
	bars := make([]Bar, 0, len(counts))
	for id, c := range counts {
		b := Bar{Count: c}
		if id != GlobalGroup {
			b.Category = dict.Term(id)
		}
		if ci != nil {
			b.CI = ci[id]
		}
		bars = append(bars, b)
	}
	sortBars(bars)
	return bars
}

// sortBars orders by descending count, then by category for determinism.
func sortBars(bars []Bar) {
	sort.Slice(bars, func(i, j int) bool {
		if bars[i].Count != bars[j].Count {
			return bars[i].Count > bars[j].Count
		}
		return bars[i].Category.Value < bars[j].Category.Value
	})
}
