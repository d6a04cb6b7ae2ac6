package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/live"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/walk"
	"kgexplore/internal/workload"
)

// ingestBenchQuery is one workload query's row in BENCH_ingest.json:
// walks-to-target-CI measured over the merged view WHILE the writer is
// ingesting, plus the end-state equivalence numbers.
type ingestBenchQuery struct {
	Path     int `json:"path"`
	Step     int `json:"step"`
	Patterns int `json:"patterns"`

	// Walks until the global estimate's 0.95 CI half-width fell under the
	// relative target, measured concurrently with ingest; pinned at
	// max_walks when the cap was hit first (so the diff gate sees a
	// monotone "more walks is worse" metric, never a zero sentinel).
	WalksToCI int64 `json:"walks_to_ci"`

	// Exact merged-view answer at the end vs a from-scratch index.Build of
	// the final triple set — must be equal (the unbiasedness ground truth).
	LiveExact    float64 `json:"live_exact"`
	RebuildExact float64 `json:"rebuild_exact"`
}

// ingestBenchReport is the BENCH_ingest.json schema. Committed as a
// baseline: the overlay must sustain concurrent ingest while serving walks
// (no full index rebuild on the write path), with read latency and
// walks-to-CI staying within the regression gate.
type ingestBenchReport struct {
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Seed         int64   `json:"seed"`
	BaseTriples  int     `json:"base_triples"`
	StreamAdds   int     `json:"stream_adds"`
	StreamDels   int     `json:"stream_deletes"`
	BatchSize    int     `json:"batch_size"`
	RelCI        float64 `json:"rel_ci_target"`
	MaxWalks     int64   `json:"max_walks"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	// Writer side: sustained WAL-logged ingest throughput and the
	// background-compaction tally over the run.
	TotalOps        int64   `json:"total_ops"`
	IngestMillis    int64   `json:"ingest_millis"`
	IngestOpsPerSec float64 `json:"ingest_ops_per_sec"`
	AppliedBatches  int64   `json:"applied_batches"`
	Compactions     int64   `json:"compactions"`
	FinalDeltaAdds  int     `json:"final_delta_adds"`
	FinalTombstones int     `json:"final_tombstones"`
	// Residual WAL records after the run's compaction rewrites —
	// telemetry, not a gated metric (the log shrinks to the residual
	// overlay at every compaction, so its size is run-phase dependent).
	WALRecords int64 `json:"wal_records"`

	// Reader side: one read op = a 64-walk batch plus a snapshot, issued
	// continuously against the live view for the whole ingest window.
	ReadOps       int64   `json:"read_ops"`
	ReadP50Micros float64 `json:"read_p50_micros"`
	ReadP99Micros float64 `json:"read_p99_micros"`

	Queries         []ingestBenchQuery `json:"queries"`
	MedianWalksToCI float64            `json:"median_walks_to_ci"`
	EquivalenceOK   bool               `json:"equivalence_ok"`
}

// ingestReadBatch is the read-op granularity: walks per latency sample.
const ingestReadBatch = 64

func ingestPercentile(micros []float64, p float64) float64 {
	if len(micros) == 0 {
		return 0
	}
	s := append([]float64(nil), micros...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// runIngestBench measures the live-ingestion subsystem end to end: a writer
// streams held-out triples (plus deletes of base triples) through the
// WAL-logged overlay in batches while a reader continuously runs merged-view
// Audit Join walks; overflow past the overlay threshold triggers background
// compaction through the external builder, exactly like kgserver -live. The
// report records ingest throughput, walks-to-target-CI and read-latency
// percentiles under that sustained interleaving, and closes with an
// equivalence check of the final merged view against a from-scratch rebuild.
func runIngestBench(w io.Writer, outPath string, scale float64, seed int64) error {
	cfg := kggen.DBpediaSim(scale)
	g, schema, err := kggen.Generate(cfg)
	if err != nil {
		return err
	}
	g.Dedup()

	// Hold out 10% of the triples as the add stream; the rest is the base.
	n := g.Len() - g.Len()/10
	base := index.Build(&rdf.Graph{Dict: g.Dict, Triples: g.Triples[:n]})
	adds := g.Triples[n:]

	// Delete 5% of the base (every 20th triple): the tombstone path. The
	// stream interleaves adds and deletes in a seeded shuffle.
	var dels []rdf.Triple
	for i := 0; i < n; i += 20 {
		dels = append(dels, g.Triples[i])
	}
	stream := make([]live.Op, 0, len(adds)+len(dels))
	for _, t := range adds {
		stream = append(stream, live.Op{T: t})
	}
	for _, t := range dels {
		stream = append(stream, live.Op{Del: true, T: t})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	// The workload comes from the base store — the queries a user was
	// already exploring when ingest started. Chart queries are grouped
	// COUNT DISTINCT, which the overlay walker routes to the exact path by
	// policy; the walk benchmark drives the estimable total-COUNT form of
	// the same patterns, and convergence targets the global estimate's CI
	// (scalebench's criterion — per-group CIs of one-count bars never
	// tighten relatively).
	gen := &workload.Generator{Store: base, Schema: schema, Seed: seed, MaxSteps: 4}
	var plans []*query.Plan
	var rows []ingestBenchQuery
	for _, r := range gen.Paths(8) {
		if r.Plan.Query.Agg != query.AggCount {
			continue
		}
		nq := *r.Query
		nq.Distinct = false
		nq.Alpha = query.NoVar
		pl, err := query.Compile(&nq)
		if err != nil || ctj.Count(base, pl) == 0 {
			continue
		}
		plans = append(plans, pl)
		rows = append(rows, ingestBenchQuery{Path: r.Path, Step: r.Step, Patterns: len(pl.Steps)})
		if len(plans) == 6 {
			break
		}
	}
	if len(plans) == 0 {
		return fmt.Errorf("ingestbench: workload produced no COUNT queries")
	}

	dir, err := os.MkdirTemp("", "kgbench-ingest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ls, err := live.NewStore(base, live.Options{WALPath: filepath.Join(dir, "ingest.wal")})
	if err != nil {
		return err
	}
	defer ls.Close()

	const (
		batchSize  = 256
		compactMin = 2000
		relCI      = 0.10
		maxWalks   = 20000
		minWindow  = 2 * time.Second
	)
	report := ingestBenchReport{
		Dataset:     cfg.Name,
		Scale:       scale,
		Seed:        seed,
		BaseTriples: base.NumTriples(),
		StreamAdds:  len(adds),
		StreamDels:  len(dels),
		BatchSize:   batchSize,
		RelCI:       relCI,
		MaxWalks:    maxWalks,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}

	// Writer: WAL-logged batches; past the overlay threshold, kick off a
	// background compaction (never blocking ingest — residual batches are
	// reconciled into the fresh base, as in kgserver's compactLoop).
	var (
		ingestDone  atomic.Bool
		compacting  atomic.Bool
		compactWG   sync.WaitGroup
		retiredMu   sync.Mutex
		retired     []io.Closer
		ingestStart = time.Now()
		writerErr   error
	)
	maybeCompact := func(gen uint64) {
		v := ls.View()
		if v.DeltaAdds()+v.Tombstones() < compactMin || !compacting.CompareAndSwap(false, true) {
			return
		}
		compactWG.Add(1)
		go func() {
			defer compactWG.Done()
			defer compacting.Store(false)
			res, err := ls.Compact(filepath.Join(dir, fmt.Sprintf("base-gen%d.kgs", gen)), snap.ExtBuildOptions{})
			if err != nil {
				return // ErrCompacting races are benign; real errors land in ls.LastErr
			}
			if res.Retired != nil {
				retiredMu.Lock()
				retired = append(retired, res.Retired)
				retiredMu.Unlock()
			}
		}()
	}
	// The writer churns for as long as the readers measure: it applies the
	// stream, then its inverse (deleting the adds, restoring the deletes),
	// and repeats — so walks-to-CI is genuinely measured under sustained
	// WAL-logged ingest, however long convergence takes.
	inverse := make([]live.Op, len(stream))
	for i, op := range stream {
		inverse[i] = live.Op{Del: !op.Del, T: op.T}
	}
	var totalOps int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for phase := 0; ; phase++ {
			ops := stream
			if phase%2 == 1 {
				ops = inverse
			}
			for off := 0; off < len(ops); off += batchSize {
				if ingestDone.Load() {
					return
				}
				end := off + batchSize
				if end > len(ops) {
					end = len(ops)
				}
				if err := ls.Apply(ops[off:end]); err != nil {
					writerErr = err
					return
				}
				atomic.AddInt64(&totalOps, int64(end-off))
				maybeCompact(ls.View().Gen())
			}
		}
	}()

	// Reader: run each workload query against the CURRENT view while the
	// writer churns, timing every read op and recording walks until the
	// 0.95 CI half-width falls under the relative target.
	var latencies []float64
	var readOps int64
	walksToCI := make([]int64, len(plans))
	readOp := func(lw *walk.Walker) bool {
		t0 := time.Now()
		for i := 0; i < ingestReadBatch; i++ {
			lw.Step()
		}
		snapr := lw.Snapshot()
		latencies = append(latencies, float64(time.Since(t0).Microseconds()))
		readOps++
		if len(snapr.Estimates) == 0 {
			return false
		}
		for gid, e := range snapr.Estimates {
			if e > 0 && snapr.CI[gid] > relCI*e {
				return false
			}
		}
		return true
	}
	for qi := range plans {
		lw, err := live.NewWalker(ls.View(), plans[qi], live.WalkerOptions{Threshold: core.DefaultThreshold, Seed: seed + int64(qi)})
		if err != nil {
			ingestDone.Store(true)
			return err
		}
		for lw.Walks() < maxWalks {
			if readOp(lw) {
				walksToCI[qi] = lw.Walks()
				break
			}
		}
		if walksToCI[qi] == 0 {
			walksToCI[qi] = maxWalks
		}
	}
	// Keep serving reads against fresh views until the sustained window
	// elapses, so latency percentiles and compaction counts reflect a real
	// concurrent run even when the workload converges quickly.
	for qi := 0; time.Since(ingestStart) < minWindow; qi = (qi + 1) % len(plans) {
		lw, err := live.NewWalker(ls.View(), plans[qi], live.WalkerOptions{Threshold: core.DefaultThreshold, Seed: seed + readOps})
		if err != nil {
			ingestDone.Store(true)
			return err
		}
		for k := 0; k < 8 && lw.Walks() < maxWalks; k++ {
			if readOp(lw) {
				break
			}
		}
	}
	ingestDone.Store(true)
	<-writerDone
	compactWG.Wait()
	if writerErr != nil {
		return writerErr
	}
	report.TotalOps = atomic.LoadInt64(&totalOps)
	report.IngestMillis = time.Since(ingestStart).Milliseconds()
	if report.IngestMillis > 0 {
		report.IngestOpsPerSec = float64(report.TotalOps) / (float64(report.IngestMillis) / 1000)
	}
	retiredMu.Lock()
	for _, c := range retired {
		c.Close()
	}
	retiredMu.Unlock()

	st := ls.Stats()
	report.AppliedBatches = st.AppliedBatches
	report.Compactions = st.Compactions
	report.FinalDeltaAdds = st.DeltaAdds
	report.FinalTombstones = st.Tombstones
	report.WALRecords = st.WALRecords
	if err := ls.LastErr(); err != nil {
		return fmt.Errorf("ingestbench: background error: %w", err)
	}
	report.ReadOps = readOps
	report.ReadP50Micros = ingestPercentile(latencies, 0.50)
	report.ReadP99Micros = ingestPercentile(latencies, 0.99)

	// Ground truth: the final merged view must agree with a from-scratch
	// build of the final triple set on every workload query.
	final := ls.View()
	fg := &rdf.Graph{Dict: g.Dict}
	if err := final.Triples(func(t rdf.Triple) error {
		fg.AddEncoded(t)
		return nil
	}); err != nil {
		return err
	}
	rebuilt := index.Build(fg)
	report.EquivalenceOK = true
	var ciVals []float64
	for qi, pl := range plans {
		rows[qi].WalksToCI = walksToCI[qi]
		if walksToCI[qi] > 0 {
			ciVals = append(ciVals, float64(walksToCI[qi]))
		}
		groups, err := live.Exact(context.Background(), final, pl)
		if err != nil {
			return err
		}
		for _, v := range groups {
			rows[qi].LiveExact += v
		}
		rows[qi].RebuildExact = float64(ctj.Count(rebuilt, pl))
		if rows[qi].LiveExact != rows[qi].RebuildExact {
			report.EquivalenceOK = false
		}
	}
	report.Queries = rows
	report.MedianWalksToCI = estMedian(ciVals)

	fmt.Fprintf(w, "ingest benchmark: %d base triples, %d-op stream (%d adds, %d deletes) over %s scale %g\n",
		report.BaseTriples, len(stream), report.StreamAdds, report.StreamDels, cfg.Name, scale)
	fmt.Fprintf(w, "ingest: %.0f ops/s over %d ms (%d ops, %d batches, %d compactions, overlay %d+%d residual)\n",
		report.IngestOpsPerSec, report.IngestMillis, report.TotalOps, report.AppliedBatches,
		report.Compactions, report.FinalDeltaAdds, report.FinalTombstones)
	fmt.Fprintf(w, "reads under ingest: %d ops, p50 %.0fµs p99 %.0fµs, median walks-to-CI %.0f\n",
		report.ReadOps, report.ReadP50Micros, report.ReadP99Micros, report.MedianWalksToCI)
	if !report.EquivalenceOK {
		fmt.Fprintf(w, "WARNING: merged view disagrees with from-scratch rebuild\n")
	}

	report.PeakRSSBytes = peakRSSBytes()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}
