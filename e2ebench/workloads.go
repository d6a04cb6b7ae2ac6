package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
)

// setupRepeats is how many times a run spawns the server to measure
// set-up: setupAfter of them after the measured window, the rest before
// it, the last of those serving the workload. Spreading the spawns over
// the run keeps one moment of host load from setting the run's median.
const (
	setupRepeats = 9
	setupAfter   = 4
)

// minSamples is the sample count a p90 needs (minBeyond samples beyond it).
const minSamples = 100

// Env is what every run needs.
type Env struct {
	Seed      int64
	Seconds   time.Duration
	ServerBin string
	Work      string // scratch directory for this run
}

// Tally accumulates one untraced run's observations.
type Tally struct {
	mu          sync.Mutex
	ExactMS     []float64
	OnlineMS    []float64
	RelCI       []float64
	OverheadMS  []float64 // client latency minus the server's reported millis
	Covered     int
	CoverTotal  int
	Attempted   int
	Failed      int
	KnownDefect int // failures of unions the printer renders with branch 0's variable names
	OnlineExact int // aj answers the server computed exactly (no bar has a CI)
	Failures    []string
}

func (t *Tally) op(err error, known bool, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if err == nil {
		return
	}
	t.Failed++
	if known {
		t.KnownDefect++
	}
	if len(t.Failures) < 20 {
		msg := fmt.Sprintf("%s: %v", what, err)
		if len(msg) > 400 {
			msg = msg[:400] + "..."
		}
		t.Failures = append(t.Failures, msg)
	}
}

func (t *Tally) exact(ms float64, resp *ChartResponse) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ExactMS = append(t.ExactMS, ms)
	t.OverheadMS = append(t.OverheadMS, ms-float64(resp.Millis))
}

// online records an aj answer. With a truth it scores coverage and fails
// the answer if it estimates a group the exact result does not have:
// online answers may miss rare groups but never invent them.
func (t *Tally) online(ms float64, resp *ChartResponse, truth map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.OnlineMS = append(t.OnlineMS, ms)
	t.OverheadMS = append(t.OverheadMS, ms-float64(resp.Millis))
	if !sampled(resp.Bars) {
		t.OnlineExact++
	} else if v, ok := MeanRelCI(resp.Bars); ok {
		t.RelCI = append(t.RelCI, v)
	}
	if truth == nil {
		return nil
	}
	c, n := Coverage(resp.Bars, truth)
	t.Covered += c
	t.CoverTotal += n
	for _, b := range resp.Bars {
		if _, ok := truth[b.Category]; !ok && b.Count > 0 {
			return fmt.Errorf("aj bar %q (%g) is not in the exact result", b.Category, b.Count)
		}
	}
	return nil
}

// enough reports whether both latency series can report a p90.
func (t *Tally) enough() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ExactMS) >= minSamples && len(t.OnlineMS) >= minSamples
}

// measuring decides when a run stops. Explore and sparql-sharded measure
// whole passes over their inputs, and ingest-mixed whole reader rounds,
// until the run's seconds have passed and the p90s have their samples, so
// every seed measures the same work. Either way the run ends at three times
// its length.
type measuring struct {
	start time.Time
	env   *Env
	t     *Tally
}

// over reports whether the run has reached its hard cap.
func (m *measuring) over() bool { return time.Since(m.start) >= 3*m.env.Seconds }

// again reports whether another pass should start.
func (m *measuring) again() bool {
	return !m.over() && (time.Since(m.start) < m.env.Seconds || !m.t.enough())
}

// Served is a spawned server plus its measured set-up times.
type Served struct {
	*Server
	SetupS []float64
	env    *Env
	args   []string
	conns  int
	reset  func() error
}

// serve spawns the server setupRepeats-setupAfter times, keeping the last.
// reset runs before each spawn (the live workload starts every spawn from
// an empty WAL).
func serve(env *Env, args []string, conns int, reset func() error) (*Served, error) {
	out := &Served{env: env, args: args, conns: conns, reset: reset}
	for i := 0; i < setupRepeats-setupAfter; i++ {
		s, err := out.spawn()
		if err != nil {
			return nil, err
		}
		if out.Server != nil {
			out.Server.Stop()
		}
		out.Server = s
	}
	return out, nil
}

func (sv *Served) spawn() (*Server, error) {
	if sv.reset != nil {
		if err := sv.reset(); err != nil {
			return nil, err
		}
	}
	s, err := spawn(sv.env.ServerBin, sv.args, sv.conns)
	if err != nil {
		return nil, err
	}
	sv.SetupS = append(sv.SetupS, s.Setup.Seconds())
	return s, nil
}

// finish stops the serving server and takes the remaining set-up samples.
func (sv *Served) finish() error {
	sv.Stop()
	for i := 0; i < setupAfter; i++ {
		s, err := sv.spawn()
		if err != nil {
			return err
		}
		s.Stop()
	}
	return nil
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runExplore replays exploration sessions against a monolithic server over
// the mmap'd snapshot: per step a full ctj chart, an aj chart at the fixed
// budget and the bar selection that leads to the next step.
func runExplore(env *Env, srv *Served, sessions [][]ExploreStep) (*Tally, map[string]any) {
	t := &Tally{}
	m := &measuring{start: time.Now(), env: env, t: t}
	passes := 0
	for ; passes == 0 || m.again(); passes++ {
		for _, s := range sessions {
			if m.over() {
				break
			}
			exploreSession(srv, t, s)
		}
	}
	steps := 0
	for _, s := range sessions {
		steps += len(s)
	}
	meta := map[string]any{"steps_per_pass": steps, "sessions": len(sessions), "passes": passes,
		"measured_s": time.Since(m.start).Seconds()}
	return t, meta
}

func exploreSession(srv *Served, t *Tally, steps []ExploreStep) {
	ctx := context.Background()
	var st struct {
		Session string `json:"session"`
	}
	_, err := srv.do(ctx, "POST", "/api/session", struct{}{}, &st)
	t.op(err, false, "new session")
	if err != nil {
		return
	}
	base := "/api/session/" + st.Session
	for _, step := range steps {
		var ex ChartResponse
		t0 := time.Now()
		_, err := srv.do(ctx, "POST", base+"/chart", map[string]any{"op": step.Op.String(), "engine": "ctj"}, &ex)
		if err == nil {
			t.exact(since(t0), &ex)
			err = MatchExact(ex.Bars, step.Truth)
		}
		t.op(err, false, "ctj chart "+step.SPARQL)

		var on ChartResponse
		t0 = time.Now()
		_, err = srv.do(ctx, "POST", base+"/chart", map[string]any{
			"op": step.Op.String(), "engine": "aj", "budgetMs": budgetMS, "topN": onlineTopN}, &on)
		if err == nil {
			err = t.online(since(t0), &on, step.Truth)
		}
		t.op(err, false, "aj chart "+step.SPARQL)

		if step.LastStep {
			return
		}
		_, err = srv.do(ctx, "POST", base+"/select", map[string]any{"op": step.Op.String(), "category": step.Select}, nil)
		t.op(err, false, "select "+step.Select)
		if err != nil {
			return
		}
	}
}

// runSPARQL sends each one-shot query once with ctj and once with aj to a
// server sharding the same data in-process.
func runSPARQL(env *Env, srv *Served, qs []SPARQLQuery) (*Tally, map[string]any) {
	ctx := context.Background()
	t := &Tally{}
	m := &measuring{start: time.Now(), env: env, t: t}
	passes := 0
	for ; passes == 0 || m.again(); passes++ {
		for _, q := range qs {
			if m.over() {
				break
			}
			known := q.Union != nil && printerMisnames(q.Union)
			var ex ChartResponse
			t0 := time.Now()
			_, err := srv.do(ctx, "POST", "/api/sparql", map[string]any{"query": q.Text, "engine": "ctj"}, &ex)
			if err == nil {
				t.exact(since(t0), &ex)
				err = MatchExact(ex.Bars, q.Truth)
			}
			t.op(err, known, q.Kind+" ctj "+q.Text)

			var on ChartResponse
			t0 = time.Now()
			_, err = srv.do(ctx, "POST", "/api/sparql", map[string]any{
				"query": q.Text, "engine": "aj", "budgetMs": budgetMS, "topN": onlineTopN}, &on)
			if err == nil {
				err = t.online(since(t0), &on, q.Truth)
			}
			t.op(err, known, q.Kind+" aj "+q.Text)
		}
	}
	meta := map[string]any{"queries": len(qs), "passes": passes, "measured_s": time.Since(m.start).Seconds()}
	return t, meta
}

// printerMisnames reports whether sparql.PrintUnion renders u with the
// wrong variables: it prints the header and GROUP BY with branch 0's
// names, which is wrong when another branch numbers its group or counted
// variable differently.
func printerMisnames(u *query.UnionQuery) bool {
	q0 := u.Branches[0]
	for _, b := range u.Branches[1:] {
		if b.Alpha != q0.Alpha || b.Beta != q0.Beta {
			return true
		}
	}
	return false
}

// ingestRead is one reader request on ingest-mixed, verified after the run
// against the state the writer had reached: at least lo batches were
// acknowledged when it was sent, at most hi had been sent when it returned.
type ingestRead struct {
	read   int
	exact  bool
	lo, hi int
	resp   ChartResponse
}

// IngestStats are the writer's figures.
type IngestStats struct {
	AckMS []float64 // one per acknowledged batch
	Ops   int       // triples acknowledged
}

// ingestArgs are the live server's flags: a WAL fsynced before every ack
// and a compaction threshold low enough for several compactions per run.
// The returned reset empties the WAL and compaction directory, so every
// spawn starts from the same base.
func ingestArgs(env *Env, snapPath string) ([]string, func() error) {
	wal := filepath.Join(env.Work, "ingest.wal")
	compactDir := filepath.Join(env.Work, "compact")
	reset := func() error {
		if err := os.RemoveAll(compactDir); err != nil {
			return err
		}
		if err := os.Remove(wal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return os.MkdirAll(compactDir, 0o755)
	}
	// The base is copy-loaded: the live store keeps the base snapshot's
	// dictionary for its whole life, and with an mmap'd base the first
	// compaction unmaps the strings that dictionary points into, so the
	// next ingest faults (SIGSEGV in rdf.Dict.Intern).
	return []string{"-snapshot", snapPath, "-snapmode", "copy", "-live", "-walpath", wal, "-livedir", compactDir,
		"-compactevery", "500ms", "-compactmin", "1000"}, reset
}

// writerThink is the writer's think time between an ack and its next
// batch. Without it the writer's rate follows the fsync latency of the
// disk, which on shared storage varied by a quarter from run to run, and
// so did the load the reads ran beside.
const writerThink = 10 * time.Millisecond

// exactPerOnline is how many DISTINCT charts the reader sends per aj chart.
// An exact read takes a few milliseconds beside the 50 ms of an aj read, so
// without more of them their p90 rests on too few samples to repeat.
const exactPerOnline = 4

// runIngest runs one writer and one reader connection against the live
// server.
func runIngest(env *Env, srv *Served, p *IngestPlan) (*Tally, *IngestStats, map[string]any, error) {
	ctx := context.Background()
	t := &Tally{}
	m := &measuring{start: time.Now(), env: env, t: t}
	d := p.Base.Graph.Dict
	var sent, acked atomic.Int64
	var stop atomic.Bool
	ws := &IngestStats{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			b := p.Batches[k%len(p.Batches)]
			body := map[string]any{"add": ntriples(d, b.Add), "delete": ntriples(d, b.Del)}
			sent.Store(int64(k + 1))
			var ack IngestResponse
			t0 := time.Now()
			_, err := srv.do(ctx, "POST", "/ingest", body, &ack)
			ms := since(t0)
			if err == nil && ack.Applied != len(b.Add)+len(b.Del) {
				err = fmt.Errorf("applied %d of %d", ack.Applied, len(b.Add)+len(b.Del))
			}
			t.op(err, false, "ingest")
			if err != nil {
				// The state after a failed batch is unknown; stop writing.
				return
			}
			acked.Store(int64(k + 1))
			ws.AckMS = append(ws.AckMS, ms)
			ws.Ops += len(b.Add) + len(b.Del)
			time.Sleep(writerThink)
		}
	}()
	var reads []ingestRead
	read := func(r int, exact bool) {
		// Both go out as aj; the server answers the DISTINCT chart on its
		// exact merged path.
		body := map[string]any{"query": p.Reads[r].OnlineText, "engine": "aj", "budgetMs": budgetMS, "topN": onlineTopN}
		if exact {
			body = map[string]any{"query": p.Reads[r].ExactText, "engine": "aj", "budgetMs": budgetMS}
		}
		rec := ingestRead{read: r, exact: exact, lo: int(acked.Load())}
		t0 := time.Now()
		_, err := srv.do(ctx, "POST", "/api/sparql", body, &rec.resp)
		ms := since(t0)
		rec.hi = int(sent.Load())
		if err != nil {
			t.op(err, false, fmt.Sprint("read ", body["query"]))
			return
		}
		if exact {
			t.exact(ms, &rec.resp)
		} else {
			t.online(ms, &rec.resp, nil)
		}
		reads = append(reads, rec)
	}
	// The reader measures whole rounds: each sends every exact read once
	// and an aj read before every exactPerOnline of them, in an order the
	// seed draws afresh per round. One order repeated all run decides which
	// reads follow the costly ones and the server's garbage collections,
	// and moved the exact p50 of two seeds by a sixth.
	rng := rand.New(rand.NewSource(env.Seed))
	n := len(p.Reads)
	var online []int
	rounds := 0
	for ; rounds == 0 || m.again(); rounds++ {
		for i, r := range rng.Perm(n) {
			if i%exactPerOnline == 0 {
				if len(online) == 0 {
					online = rng.Perm(n)
				}
				read(online[0], false)
				online = online[1:]
			}
			read(r, true)
		}
	}
	measured := time.Since(m.start).Seconds()
	stop.Store(true)
	wg.Wait()
	health, err := srv.Health(ctx)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("healthz after run: %w; server log: %s", err, srv.logTail())
	}
	verifyIngest(p, reads, t)
	meta := map[string]any{"measured_s": measured, "batches": len(ws.AckMS), "rounds": rounds, "live": health["live"],
		"wal_flush":       "fsync per batch before ack (-walpath, no -walnosync)",
		"writer_think_ms": writerThink.Milliseconds(),
		"compaction":      "-compactevery 500ms -compactmin 1000"}
	return t, ws, meta, nil
}

// verifyIngest checks every reader answer against ground truth over the
// writer state it could have seen. An exact answer must equal the truth at
// one state in [lo, hi]; an online answer's coverage is scored against the
// state at lo, the last acknowledged batch when it was sent.
func verifyIngest(p *IngestPlan, reads []ingestRead, t *Tally) {
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	st := newStateAfter(p)
	d := p.Base.Graph.Dict
	stores := map[int]*index.Store{}
	storeAt := func(k int) *index.Store {
		if s, ok := stores[k]; ok {
			return s
		}
		if k < st.applied {
			st = newStateAfter(p)
		}
		st.Advance(k)
		s := st.Store()
		stores[k] = s
		return s
	}
	for _, r := range reads {
		// States below lo are never needed again.
		for k := range stores {
			if k < r.lo {
				delete(stores, k)
			}
		}
		rd := p.Reads[r.read]
		if !r.exact {
			truth := labelTruth(d, ctj.Evaluate(storeAt(r.lo), rd.Online))
			c, n := Coverage(r.resp.Bars, truth)
			t.Covered += c
			t.CoverTotal += n
			t.op(nil, false, "")
			continue
		}
		var err error
		for k := r.lo; k <= r.hi; k++ {
			err = MatchExact(r.resp.Bars, labelTruth(d, ctj.Evaluate(storeAt(k), rd.Exact)))
			if err == nil {
				break
			}
		}
		t.op(err, false, "exact read "+rd.ExactText)
	}
}
