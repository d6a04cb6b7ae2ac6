package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"kgexplore"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/server"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
	"kgexplore/internal/wj"
)

// Span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the enclosing span's ID (0 for a request's root).
type Span struct {
	ID, Parent, Req int32
	Name            string
	Start, End      int64 // ns since the tracer started
}

// Tracer keeps spans in memory. The traced replay is sequential, so it
// needs no locking.
type Tracer struct {
	t0    time.Time
	spans []Span
	req   int32
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (tr *Tracer) now() int64 { return int64(time.Since(tr.t0)) }

// Request starts a new request and returns its root span.
func (tr *Tracer) Request() int32 {
	tr.req++
	return tr.Begin("request", 0)
}

// Begin opens a span under parent and returns its ID.
func (tr *Tracer) Begin(name string, parent int32) int32 {
	id := int32(len(tr.spans) + 1)
	tr.spans = append(tr.spans, Span{ID: id, Parent: parent, Req: tr.req, Name: name, Start: tr.now()})
	return id
}

// End closes (or extends) span id at the current time.
func (tr *Tracer) End(id int32) { tr.spans[id-1].End = tr.now() }

// Time runs f inside a span.
func (tr *Tracer) Time(name string, parent int32, f func(id int32)) {
	id := tr.Begin(name, parent)
	f(id)
	tr.End(id)
}

// SelfTimes returns, per span name, each span's self time in ns: its
// duration minus the part its child spans cover (children of one span
// never overlap in a sequential replay).
func SelfTimes(spans []Span) map[string][]float64 {
	child := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID]))
	}
	return out
}

// tracedStepper records the walks of an online runner as spans under the
// exec.Drive span: consecutive walks coalesce into one span of up to
// walkSpanLen walks, and each Snapshot gets its own span.
type tracedStepper struct {
	exec.Stepper
	tr             *Tracer
	parent         int32
	walk, snapshot string
	open           int32
	n              int
}

const walkSpanLen = 1024

func (s *tracedStepper) Step() {
	if s.open == 0 {
		s.open = s.tr.Begin(s.walk, s.parent)
	}
	s.Stepper.Step()
	s.tr.End(s.open)
	if s.n++; s.n%walkSpanLen == 0 {
		s.open = 0
	}
}

func (s *tracedStepper) Snapshot() wj.Result {
	s.open = 0
	var r wj.Result
	s.tr.Time(s.snapshot, s.parent, func(int32) { r = s.Stepper.Snapshot() })
	return r
}

// drive runs an online runner for the fixed budget under an exec.drive
// span, with its walks and snapshots traced.
func (tr *Tracer) drive(parent int32, r exec.Stepper, walk, snapshot string) (wj.Result, error) {
	var rep exec.Report
	var err error
	tr.Time("exec.drive", parent, func(id int32) {
		ts := &tracedStepper{Stepper: r, tr: tr, parent: id, walk: walk, snapshot: snapshot}
		rep, err = exec.Drive(context.Background(), ts, exec.Options{Budget: budgetMS * time.Millisecond, Batch: 128})
	})
	return rep.Final, err
}

// chartInput is one query replayed through the monolithic and sharded
// layers.
type chartInput struct {
	text  string
	truth map[string]float64 // nil: not checked
}

// traceInputs are a workload's inputs as the traced run replays them.
type traceInputs struct {
	ds        *Dataset // served by the monolithic and sharded phases
	sessions  [][]ExploreStep
	charts    []chartInput
	parseOnly []SPARQLQuery // unions: parsed and answered by the server only
	ingest    *IngestPlan
	home      string // the workload's own backend: mono, shard or live
}

func traceInputsFor(env *Env, wl string) (*traceInputs, error) {
	in := &traceInputs{}
	switch wl {
	case "explore", "sparql-sharded":
		ds, err := generate(exploreScale)
		if err != nil {
			return nil, err
		}
		in.ds = ds
		if wl == "explore" {
			in.home = "mono"
			in.sessions = exploreSessions(ds, env.Seed, explorePaths)
			for _, s := range in.sessions {
				for _, st := range s {
					in.charts = append(in.charts, chartInput{text: st.SPARQL, truth: st.Truth})
				}
			}
		} else {
			in.home = "shard"
			qs, sessions := sparqlQueries(ds, env.Seed)
			in.sessions = sessions
			for _, q := range qs {
				if q.Union != nil {
					in.parseOnly = append(in.parseOnly, q)
					continue
				}
				in.charts = append(in.charts, chartInput{text: q.Text, truth: q.Truth})
			}
		}
		p, err := ingestPlan(ds, env.Seed)
		if err != nil {
			return nil, err
		}
		var qs []*query.Query
		for _, s := range in.sessions {
			for _, st := range s {
				qs = append(qs, st.Query)
			}
		}
		if err := p.setReads(qs); err != nil {
			return nil, err
		}
		in.ingest = p
	case "ingest-mixed":
		full, err := generate(ingestScale)
		if err != nil {
			return nil, err
		}
		p, err := ingestPlan(full, env.Seed)
		if err != nil {
			return nil, err
		}
		if err := p.exploreReads(env.Seed, ingestPaths); err != nil {
			return nil, err
		}
		in.home, in.ds, in.ingest, in.sessions = "live", p.Base, p, p.Sessions
		for _, s := range p.Sessions {
			for _, st := range s {
				in.charts = append(in.charts, chartInput{text: st.SPARQL, truth: st.Truth})
			}
		}
	}
	return in, nil
}

// layerRun accumulates the traced run's counters beside its spans.
type layerRun struct {
	tr                   *Tracer
	t                    *Tally
	coreWalks, coreRej   int64
	coreTipped           int64
	shardWalks, liveWalk int64
	liveRej              int64
	diag                 core.TipDiag
	// CTJ cache lookups of Audit Join runs whose plan's warm-start cache
	// was new (cold) or already filled by an earlier request (warm).
	coldHit, coldAll   int64
	warmHit, warmAll   int64
	overheadMS, respKB []float64
	handlerMS          []float64
	overlay            []float64
	compactions        int
	walksToCI          []float64
	unconverged        int
	shared             map[string]*ctj.SharedCache
}

// handle sends one request to an in-process server handler under a
// server.handle span and records the server's overhead (handler time
// minus the reported evaluation millis) and response size.
func (lr *layerRun) handle(parent int32, h http.Handler, text, engine string, known bool) {
	body, _ := json.Marshal(map[string]any{"query": text, "engine": engine, "budgetMs": budgetMS})
	rec := httptest.NewRecorder()
	var ms float64
	lr.tr.Time("server.handle", parent, func(int32) {
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/sparql", bytes.NewReader(body)))
		ms = since(t0)
	})
	var resp ChartResponse
	var err error
	if rec.Code/100 != 2 {
		err = &HTTPError{Code: rec.Code, Body: rec.Body.String()}
	} else if err = json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
		lr.handlerMS = append(lr.handlerMS, ms)
		lr.overheadMS = append(lr.overheadMS, ms-float64(resp.Millis))
		lr.respKB = append(lr.respKB, float64(rec.Body.Len())/1024)
	}
	lr.t.op(err, known, "in-process "+engine+" "+text)
}

// parse and compile one chart text under sparql.parse and query.compile
// spans.
func (lr *layerRun) compile(parent int32, d *kgexplore.Dict, text string) (*query.Plan, error) {
	var parsed *sparql.Parsed
	var err error
	lr.tr.Time("sparql.parse", parent, func(int32) { parsed, err = sparql.Parse(text, d) })
	if err != nil {
		return nil, err
	}
	var pl *query.Plan
	lr.tr.Time("query.compile", parent, func(int32) { pl, err = query.Compile(parsed.Query) })
	return pl, err
}

// traced replays the workload's inputs in-process through every layer's
// public functions and computes per-layer metrics from the spans. The
// workload's own backend gets 45% of the run, the other two backends 20%
// each and the seeded walks-to-CI runs 15%.
func traced(env *Env, wl string) (Result, map[string]any, error) {
	in, err := traceInputsFor(env, wl)
	if err != nil {
		return Result{}, nil, err
	}
	tr := newTracer()
	lr := &layerRun{tr: tr, t: &Tally{}, shared: map[string]*ctj.SharedCache{}}
	path := filepath.Join(env.Work, "data.kgs")
	if err := writeSnapshot(path, in.ds.Store, "e2ebench trace"); err != nil {
		return Result{}, nil, err
	}
	var loaded *snap.Loaded
	for i := 0; i < setupRepeats; i++ {
		if loaded != nil {
			loaded.Close()
		}
		root := tr.Request()
		tr.Time("snap.load", root, func(int32) {
			loaded, err = snap.LoadFile(path, snap.Options{Mode: snap.ModeAuto})
		})
		tr.End(root)
		if err != nil {
			return Result{}, nil, fmt.Errorf("load snapshot: %w", err)
		}
	}
	defer loaded.Close()
	kds, err := kgexplore.FromStore(loaded.Store, kgexplore.RootThing)
	if err != nil {
		return Result{}, nil, err
	}
	sds, err := kds.BuildSharded(shardCount, "")
	if err != nil {
		return Result{}, nil, err
	}
	base, err := kgexplore.FromStore(in.ingest.Base.Store, kgexplore.RootThing)
	if err != nil {
		return Result{}, nil, err
	}
	lds, err := base.Live(kgexplore.LiveOptions{WALPath: filepath.Join(env.Work, "trace.wal")})
	if err != nil {
		return Result{}, nil, err
	}
	defer lds.Close()

	share := map[string]float64{"mono": 0.2, "shard": 0.2, "live": 0.2}
	share[in.home] = 0.45
	phase := func(f float64) time.Duration { return time.Duration(f * float64(env.Seconds)) }
	start := time.Now()
	lr.replaySessions(in.ds.Schema, in.sessions)
	lr.monoPhase(in, kds, loaded.Store, phase(share["mono"]))
	lr.shardPhase(in, sds, phase(share["shard"]))
	lr.livePhase(env, in, lds, phase(share["live"]))
	lr.walksToCIPhase(env, in, kds, phase(0.15))
	measured := time.Since(start).Seconds()

	metrics := lr.metrics()
	// A request of the workload's own backend replays the layers and then
	// sends the same query to the in-process server; its traced total is
	// the request's time outside the server.handle span.
	handled := map[int32]int64{}
	for _, s := range tr.spans {
		if s.Name == "server.handle" {
			handled[s.Parent] += s.End - s.Start
		}
	}
	var reqMS []float64
	for _, s := range tr.spans {
		if h, ok := handled[s.ID]; ok && s.Name == "request" {
			reqMS = append(reqMS, float64(s.End-s.Start-h)/1e6)
		}
	}
	meta := map[string]any{
		"measured_s": measured, "spans": len(tr.spans), "requests": tr.req,
		"traced_request_ms_p50":     Median(reqMS),
		"in_process_handler_ms_p50": Median(lr.handlerMS),
		"home_backend":              in.home,
		"triples":                   in.ds.Store.NumTriples(),
		"walks_to_ci": map[string]any{"runs": len(lr.walksToCI), "unconverged": lr.unconverged,
			"cap": ciWalkCap, "cadence": ciCadence, "target_relci": ciTarget},
		"failed_known_printer_defect": lr.t.KnownDefect,
		"failures":                    lr.t.Failures,
		"wal_flush":                   "fsync per batch (in-process live store with a WAL)",
	}
	return Result{
		Correct:   lr.t.Failed == lr.t.KnownDefect,
		Attempted: lr.t.Attempted,
		Failed:    lr.t.Failed,
		Metrics:   metrics,
	}, meta, nil
}

// replaySessions walks every exploration path through explore.State: the
// chart query of each step and the selection leading to the next.
func (lr *layerRun) replaySessions(schema explore.Schema, sessions [][]ExploreStep) {
	for _, s := range sessions {
		if len(s) == 0 {
			continue
		}
		root := lr.tr.Request()
		st := explore.Root(schema)
		for _, step := range s {
			var err error
			lr.tr.Time("explore.query", root, func(int32) { _, err = st.Query(step.Op) })
			if err == nil && !step.LastStep {
				st, err = st.Select(step.Op, step.Selected)
			}
			lr.t.op(err, false, "explore "+step.SPARQL)
			if err != nil {
				break
			}
		}
		lr.tr.End(root)
	}
}

// monoPhase replays the charts through the monolithic layers: parse,
// compile, CTJ, and Audit Join driven for the fixed budget with the
// warm-start cache of its query, as the server keeps one per plan.
func (lr *layerRun) monoPhase(in *traceInputs, kds *kgexplore.Dataset, st *index.Store, d time.Duration) {
	h := server.NewWithProvenance(kds, server.Provenance{Source: "trace", Kind: "snapshot"}, nil).Handler()
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		c := in.charts[i%len(in.charts)]
		root := lr.tr.Request()
		pl, err := lr.compile(root, kds.Dict(), c.text)
		if err == nil {
			var res map[kgexplore.ID]float64
			lr.tr.Time("ctj.exact", root, func(int32) { res, err = ctj.EvaluateCtx(context.Background(), st, pl) })
			if err == nil && c.truth != nil {
				err = MatchExact(barsOf(kds.Dict(), res, nil), c.truth)
			}
		}
		lr.t.op(err, false, "ctj "+c.text)
		if err == nil {
			sc, warm := lr.shared[c.text]
			if !warm {
				sc = ctj.NewSharedCache()
				lr.shared[c.text] = sc
			}
			r := kds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{
				Threshold: kgexplore.DefaultTippingThreshold, Seed: int64(i) + 1, Shared: sc})
			_, err = lr.tr.drive(root, r, "core.walk", "wj.snapshot")
			lr.t.op(err, false, "aj "+c.text)
			lr.coreWalks += r.Walks()
			lr.coreRej += r.Acc().Rejected
			lr.coreTipped += r.Tipped()
			lr.diag.Merge(r.TipDiag())
			hits, all := cacheCounts(r.CacheStats())
			if warm {
				lr.warmHit, lr.warmAll = lr.warmHit+hits, lr.warmAll+all
			} else {
				lr.coldHit, lr.coldAll = lr.coldHit+hits, lr.coldAll+all
			}
		}
		if in.home == "mono" {
			lr.handle(root, h, c.text, "ctj", false)
		}
		lr.tr.End(root)
	}
}

// shardPhase replays the charts through the sharded layers: the resolver
// enumeration for exact answers and the scatter walker for online ones.
// Unions are parsed and, on the sharded workload, answered by the server.
func (lr *layerRun) shardPhase(in *traceInputs, sds *kgexplore.ShardedDataset, d time.Duration) {
	h := server.NewSharded(sds, server.Provenance{Source: "trace", Kind: "sharded"}).Handler()
	dict := sds.Dict()
	if in.home == "shard" {
		for _, u := range in.parseOnly {
			root := lr.tr.Request()
			known := printerMisnames(u.Union)
			var err error
			lr.tr.Time("sparql.parse", root, func(int32) { _, err = sparql.Parse(u.Text, dict) })
			lr.t.op(err, known, "parse "+u.Text)
			lr.handle(root, h, u.Text, "ctj", known)
			lr.tr.End(root)
		}
	}
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		c := in.charts[i%len(in.charts)]
		root := lr.tr.Request()
		pl, err := lr.compile(root, dict, c.text)
		if err == nil {
			var res map[kgexplore.ID]float64
			lr.tr.Time("shard.exact", root, func(int32) { res, err = sds.ExactCtx(context.Background(), pl) })
			if err == nil && c.truth != nil {
				err = MatchExact(barsOf(dict, res, nil), c.truth)
			}
		}
		lr.t.op(err, false, "shard exact "+c.text)
		if err == nil && (!pl.Query.Distinct || kgexplore.ShardScatterOwned(pl)) {
			var sc *kgexplore.ShardScatter
			sc, err = sds.NewScatter(pl, kgexplore.ShardScatterOptions{
				Threshold: kgexplore.DefaultTippingThreshold, Seed: int64(i) + 1})
			if err == nil {
				var res wj.Result
				res, err = lr.tr.drive(root, sc, "shard.walk", "shard.snapshot")
				lr.shardWalks += res.Walks
			}
			lr.t.op(err, false, "scatter "+c.text)
		}
		if in.home == "shard" {
			lr.handle(root, h, c.text, "ctj", false)
		}
		lr.tr.End(root)
	}
}

// liveBatchesPerRead is how many ingest batches the live phase applies
// before each read, so that the overlay crosses the compaction threshold
// every few reads.
const liveBatchesPerRead = 4

// liveCompactAt is the overlay size (delta adds plus tombstones) at which
// the live phase compacts, the same threshold the live server runs with.
const liveCompactAt = 1000

// livePhase applies the seeded ingest stream to an in-process live store
// with a WAL, compacting past the threshold, and reads between batches:
// the bag chart through the overlay walker and the DISTINCT chart through
// the exact merged path.
func (lr *layerRun) livePhase(env *Env, in *traceInputs, lds *kgexplore.LiveDataset, d time.Duration) {
	p := in.ingest
	dict := p.Base.Graph.Dict
	h := server.NewLive(lds, server.Provenance{Source: "trace", Kind: "live"}).Handler()
	end := time.Now().Add(d)
	k := 0
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		root := lr.tr.Request()
		for j := 0; j < liveBatchesPerRead; j, k = j+1, k+1 {
			b := p.Batches[k%len(p.Batches)]
			var err error
			lr.tr.Time("live.apply", root, func(int32) {
				_, err = lds.IngestNTriples(ntriples(dict, b.Add), ntriples(dict, b.Del))
			})
			lr.t.op(err, false, "live apply")
		}
		st := lds.Stats()
		overlay := st.DeltaAdds + st.Tombstones
		lr.overlay = append(lr.overlay, float64(overlay))
		if overlay >= liveCompactAt {
			var res kgexplore.LiveCompactResult
			var err error
			lr.tr.Time("live.compact", root, func(int32) {
				res, err = lds.Compact(filepath.Join(env.Work, fmt.Sprintf("compact-%d.kgs", lr.compactions)))
			})
			lr.t.op(err, false, "live compact")
			if err == nil {
				lr.compactions++
				if res.Retired != nil {
					// No reader holds an older view in a sequential replay.
					res.Retired.Close()
				}
			}
		}
		r := p.Reads[i%len(p.Reads)]
		w, err := lds.NewLiveWalker(r.Online, kgexplore.LiveWalkerOptions{
			Threshold: kgexplore.DefaultTippingThreshold, Seed: int64(i) + 1})
		if err == nil {
			_, err = lr.tr.drive(root, w, "live.walk", "live.snapshot")
			lr.liveWalk += w.Walks()
			lr.liveRej += w.Acc().Rejected
		}
		lr.t.op(err, false, "live walk "+r.OnlineText)
		lr.tr.Time("live.exact", root, func(int32) { _, err = lds.ExactCtx(context.Background(), r.Exact) })
		lr.t.op(err, false, "live exact "+r.ExactText)
		if in.home == "live" {
			lr.handle(root, h, r.ExactText, "aj", false)
		}
		lr.tr.End(root)
	}
}

// Walks-to-CI: seeded Audit Join runs snapshot every ciCadence walks until
// the mean relative CI of the top bars falls to ciTarget. A run that has
// not converged by ciWalkCap walks is reported at the cap and counted as
// unconverged.
const (
	ciCadence = 512
	ciWalkCap = 1 << 17
	ciTarget  = 0.25
)

func (lr *layerRun) walksToCIPhase(env *Env, in *traceInputs, kds *kgexplore.Dataset, d time.Duration) {
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		c := in.charts[i%len(in.charts)]
		pl, err := kds.ParseQuery(c.text)
		var plan *query.Plan
		if err == nil {
			plan, err = query.Compile(pl.Query)
		}
		lr.t.op(err, false, "walks-to-ci "+c.text)
		if err != nil {
			continue
		}
		r := kds.NewAuditJoin(plan, kgexplore.AuditJoinOptions{
			Threshold: kgexplore.DefaultTippingThreshold, Seed: env.Seed*7919 + int64(i)})
		walks := int64(ciWalkCap)
		for r.Walks() < ciWalkCap {
			exec.RunN(r, ciCadence)
			snap := r.Snapshot()
			if v, ok := MeanRelCI(topBars(barsOf(kds.Dict(), snap.Estimates, snap.CI), onlineTopN)); ok && v <= ciTarget {
				walks = r.Walks()
				break
			}
		}
		if walks == ciWalkCap {
			lr.unconverged++
		}
		lr.walksToCI = append(lr.walksToCI, float64(walks))
	}
}

// barsOf labels per-group results as the server does.
func barsOf(d *kgexplore.Dict, counts, ci map[kgexplore.ID]float64) []Bar {
	bars := make([]Bar, 0, len(counts))
	for id, c := range counts {
		bars = append(bars, Bar{Category: label(d, id), Count: c, CI: ci[id]})
	}
	return bars
}

// metrics computes the per-layer metrics from the spans and counters.
func (lr *layerRun) metrics() map[string]Metric {
	self := SelfTimes(lr.tr.spans)
	sum := func(name string) float64 {
		var s float64
		for _, v := range self[name] {
			s += v
		}
		return s
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]Metric{
		"core.walk_ns":         {sum("core.walk") / float64(max(lr.coreWalks, 1)), "ns"},
		"core.reject_ratio":    {ratio(lr.coreRej, lr.coreWalks), "ratio"},
		"core.tip_ratio":       {ratio(lr.coreTipped, lr.coreWalks), "ratio"},
		"core.walks_to_ci":     {Median(lr.walksToCI), "walks"},
		"card.tip_qerror":      {lr.diag.MeanQError(), "ratio"},
		"wj.snapshot_us":       {mean(self["wj.snapshot"]) / 1e3, "us"},
		"exec.self_ms":         {mean(self["exec.drive"]) / 1e6, "ms"},
		"ctj.exact_ms":         {Median(self["ctj.exact"]) / 1e6, "ms"},
		"ctj.cache_hit_ratio":  {ratio(lr.coldHit, lr.coldAll), "ratio"},
		"ctj.shared_hit_ratio": {ratio(lr.warmHit, lr.warmAll), "ratio"},
		"server.overhead_ms":   {Median(lr.overheadMS), "ms"},
		"server.resp_kb":       {mean(lr.respKB), "KiB"},
		"explore.query_us":     {Median(self["explore.query"]) / 1e3, "us"},
		"sparql.parse_us":      {Median(self["sparql.parse"]) / 1e3, "us"},
		"query.compile_us":     {Median(self["query.compile"]) / 1e3, "us"},
		"shard.walk_ns":        {sum("shard.walk") / float64(max(lr.shardWalks, 1)), "ns"},
		"shard.exact_ms":       {Median(self["shard.exact"]) / 1e6, "ms"},
		"live.apply_ms":        {Median(self["live.apply"]) / 1e6, "ms"},
		"live.compact_s":       {Median(self["live.compact"]) / 1e9, "s"},
		"live.compactions":     {float64(lr.compactions), "count"},
		"live.overlay_triples": {mean(lr.overlay), "count"},
		"live.walk_ns":         {sum("live.walk") / float64(max(lr.liveWalk, 1)), "ns"},
		"live.reject_ratio":    {ratio(lr.liveRej, lr.liveWalk), "ratio"},
		"snap.load_ms":         {Median(self["snap.load"]) / 1e6, "ms"},
	}
}

// cacheCounts sums a run's CTJ cache hits and lookups over every cache.
func cacheCounts(cs ctj.CacheStats) (hits, all int64) {
	hits = cs.CountHits + cs.AggHits + cs.ExistHits + cs.ProbHits
	return hits, hits + cs.CountMisses + cs.AggMisses + cs.ExistMisses + cs.ProbMisses
}

// topBars returns the n bars with the largest estimates.
func topBars(bars []Bar, n int) []Bar {
	sort.Slice(bars, func(i, j int) bool { return bars[i].Count > bars[j].Count })
	if len(bars) > n {
		bars = bars[:n]
	}
	return bars
}
