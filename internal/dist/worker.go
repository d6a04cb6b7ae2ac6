package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
	"kgexplore/internal/snap"
	"kgexplore/internal/walk"
	"kgexplore/internal/wj"
)

// heartbeatInterval paces run-stream MsgSnap frames when the client asked
// for no progressive snapshots: the coordinator's stall detector needs
// periodic liveness either way.
const heartbeatInterval = 500 * time.Millisecond

// Placement names for helloResp/WorkerStats.
const (
	PlacementReplicate = "replicate"
	PlacementOwn       = "own"
)

// WorkerOptions configure one shard worker.
type WorkerOptions struct {
	// Manifest is the .kgm shard-set manifest path.
	Manifest string
	// Shard is the stratum this worker roots walks in (its identity shard).
	Shard int
	// Own selects own-shard placement: load ONLY shard Shard's snapshot and
	// resolve cross-shard steps through peer workers (Peers). The default
	// replicate placement loads the whole set — on one box the mmap'ed
	// snapshots share the page cache across workers, so replication costs
	// address space, not RAM — and can therefore serve any stratum, which
	// is what makes coordinator-side stratum re-allocation possible.
	Own bool
	// Peers are the worker addresses, one per shard, required by Own
	// placement (falls back to the manifest's Workers field).
	Peers []string
	// Copy disables mmap snapshot loads (verified copy loads instead).
	Copy bool
}

// Faults are deterministic failure-injection hooks for tests: they trigger
// on run-stream snapshot counts, which are ordered and observable from the
// coordinator side.
type Faults struct {
	// KillAfterSnaps > 0 crashes the whole worker (listener and every
	// connection) immediately after the Nth MsgSnap frame of a matching
	// run has been sent.
	KillAfterSnaps int
	// HangAfterSnaps > 0 silences a matching run after its Nth MsgSnap
	// frame: no further snapshots and no MsgDone, with the connection held
	// open — the shape a wedged worker presents to the stall detector.
	HangAfterSnaps int
	// Stratum restricts the fault to runs of one stratum; -1 matches any.
	Stratum int
}

func (f Faults) matches(stratum int) bool {
	return (f.KillAfterSnaps > 0 || f.HangAfterSnaps > 0) &&
		(f.Stratum < 0 || f.Stratum == stratum)
}

// workerEpoch is one immutable serving generation: the loaded set and the
// estimator scope over its local stores. Swaps install a new epoch and
// drain the old one before closing its mmaps.
type workerEpoch struct {
	set    *shard.Set
	m      shard.Manifest
	stores []*index.Store // local stores, for card.ByName scoping
	own    *index.Store   // the identity shard's store (View serving)
	refs   sync.WaitGroup
}

// Worker serves one shard of a .kgm set over the dist wire protocol: walk
// execution for its strata, span resolution of its shard for peers'
// cross-shard steps, the suffix/exact CTJ fallback, stats, and the
// two-phase epoch swap. Safe for concurrent connections.
type Worker struct {
	opts  WorkerOptions
	start time.Time

	mu      sync.Mutex
	cur     *workerEpoch
	pending *workerEpoch
	epoch   int64
	ln      net.Listener
	conns   map[*conn]struct{}
	closed  bool

	faults atomic.Pointer[Faults]

	activeRuns atomic.Int64
	totalRuns  atomic.Int64
	totalWalks atomic.Int64
	wireIn     atomic.Int64
	wireOut    atomic.Int64
	swaps      atomic.Int64
}

// NewWorker loads the worker's epoch from the manifest and returns a
// worker ready to Serve.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	w := &Worker{opts: opts, start: time.Now(), conns: make(map[*conn]struct{})}
	e, err := w.loadEpoch(opts.Manifest)
	if err != nil {
		return nil, err
	}
	w.cur = e
	return w, nil
}

// loadEpoch loads a serving generation from a manifest path on the local
// filesystem, honoring the worker's placement.
func (w *Worker) loadEpoch(manifestPath string) (*workerEpoch, error) {
	return w.loadEpochMode(manifestPath, w.opts.Copy)
}

func (w *Worker) loadEpochMode(manifestPath string, copyLoad bool) (*workerEpoch, error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	if w.opts.Shard < 0 || w.opts.Shard >= m.Shards {
		return nil, fmt.Errorf("dist: shard %d outside manifest's %d shards", w.opts.Shard, m.Shards)
	}
	if !w.opts.Own {
		set, err := shard.Load(manifestPath, shard.LoadOptions{Mmap: !copyLoad})
		if err != nil {
			return nil, err
		}
		stores := make([]*index.Store, set.K())
		for i := range stores {
			stores[i] = set.Store(i)
		}
		return &workerEpoch{set: set, m: m, stores: stores, own: set.Store(w.opts.Shard)}, nil
	}

	// Own placement: this shard's snapshot locally, every other shard
	// through its peer worker.
	peers := w.opts.Peers
	if len(peers) == 0 {
		peers = m.Workers
	}
	if len(peers) != m.Shards {
		return nil, fmt.Errorf("dist: own placement needs %d peer addresses, have %d", m.Shards, len(peers))
	}
	part, err := shard.PartitionerByName(m.Partitioner)
	if err != nil {
		return nil, err
	}
	sopts := snap.Options{Mode: snap.ModeAuto}
	if copyLoad {
		sopts = snap.Options{Mode: snap.ModeCopy, Verify: true}
	}
	dir := filepath.Dir(manifestPath)
	l, err := snap.LoadFile(filepath.Join(dir, m.Files[w.opts.Shard].Path), sopts)
	if err != nil {
		return nil, fmt.Errorf("dist: loading own shard %d: %w", w.opts.Shard, err)
	}
	stores := make([]*index.Store, m.Shards)
	remotes := make([]shard.Remote, m.Shards)
	stores[w.opts.Shard] = l.Store
	for i := range remotes {
		if i == w.opts.Shard {
			continue
		}
		remotes[i] = NewRemoteShard(peers[i])
	}
	set, err := shard.NewHybrid(stores, remotes, part, l.Store.Dict())
	if err != nil {
		l.Close()
		return nil, err
	}
	return &workerEpoch{set: set, m: m, stores: []*index.Store{l.Store}, own: l.Store}, nil
}

// SetFaults installs failure-injection hooks (tests only). A zero Faults
// clears them.
func (w *Worker) SetFaults(f Faults) { w.faults.Store(&f) }

// Serve accepts connections on ln until the listener closes. It blocks;
// run it on its own goroutine.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return fmt.Errorf("dist: worker is closed")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		c := newConn(nc)
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return nil
		}
		w.conns[c] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(c)
	}
}

// Addr returns the listening address ("" before Serve).
func (w *Worker) Addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Close shuts the worker down: listener, connections, and the loaded set.
func (w *Worker) Close() error {
	w.Kill()
	w.mu.Lock()
	cur, pending := w.cur, w.pending
	w.cur, w.pending = nil, nil
	w.mu.Unlock()
	var first error
	for _, e := range []*workerEpoch{cur, pending} {
		if e == nil {
			continue
		}
		e.refs.Wait()
		if err := e.set.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Kill abruptly stops serving — listener and every open connection — but
// keeps the loaded set mapped. It is the crash form the fault hooks use;
// Close is the orderly form.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.closed = true
	ln := w.ln
	conns := make([]*conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

func (w *Worker) acquire() (*workerEpoch, int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil {
		return nil, 0, fmt.Errorf("dist: worker has no serving epoch")
	}
	w.cur.refs.Add(1)
	return w.cur, w.epoch, nil
}

func (w *Worker) placement() string {
	if w.opts.Own {
		return PlacementOwn
	}
	return PlacementReplicate
}

// servedPlan is one registered plan on a connection, answering View RPCs
// against this worker's own shard through the same shard.View the
// in-process walk.Source would use. It pins the epoch it was opened against —
// View RPCs serve raw span offsets that are only meaningful within one
// epoch's mmap — and releases the pin when the connection closes.
type servedPlan struct {
	pl   *query.Plan
	view shard.View
	e    *workerEpoch
}

func (w *Worker) serveConn(c *conn) {
	plans := make(map[uint64]*servedPlan)
	defer func() {
		for _, sp := range plans {
			sp.e.refs.Done()
		}
		w.wireIn.Add(c.in.Load())
		w.wireOut.Add(c.out.Load())
		c.Close()
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
	}()
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return
		}
		terminal, err := w.dispatch(c, typ, payload, plans)
		if err != nil {
			c.writeErr(err)
		}
		if terminal {
			return
		}
	}
}

// dispatch handles one frame. terminal=true means the request consumed the
// connection (runs and exact evaluations: their cancel channel is the
// connection itself).
func (w *Worker) dispatch(c *conn, typ byte, payload []byte, plans map[uint64]*servedPlan) (terminal bool, err error) {
	switch typ {
	case MsgHello:
		var req helloReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return false, err
		}
		if req.Proto != ProtoVersion {
			return false, fmt.Errorf("dist: protocol version %d, worker speaks %d", req.Proto, ProtoVersion)
		}
		e, epoch, err := w.acquire()
		if err != nil {
			return false, err
		}
		defer e.refs.Done()
		stratum := w.opts.Shard
		if !w.opts.Own {
			stratum = -1
		}
		return false, c.writeJSON(MsgHelloOK, helloResp{
			Proto:      ProtoVersion,
			Shards:     e.m.Shards,
			Stratum:    stratum,
			Placement:  w.placement(),
			ConfigHash: e.m.ConfigHash,
			DictLen:    e.set.Dict().Len(),
			Epoch:      epoch,
		})
	case MsgPing:
		return false, c.writeFrame(MsgPong, nil)
	case MsgStats:
		return false, c.writeJSON(MsgStatsOK, w.stats())
	case MsgInfo:
		return false, w.handleInfo(c, payload)
	case MsgRun:
		return true, w.handleRun(c, payload)
	case MsgExact:
		return true, w.handleExact(c, payload)
	case MsgOpenPlan:
		return false, w.handleOpenPlan(c, payload, plans)
	case MsgResolve, MsgRead, MsgAt, MsgContains:
		return false, w.handleViewRPC(c, typ, payload, plans)
	case MsgSwapPrep:
		return false, w.handleSwapPrep(c, payload)
	case MsgSwapCommit:
		return false, w.handleSwapCommit(c)
	case MsgSwapAbort:
		return false, w.handleSwapAbort(c)
	default:
		return false, fmt.Errorf("dist: unknown message type 0x%02x", typ)
	}
}

func (w *Worker) stats() WorkerStats {
	w.mu.Lock()
	epoch := w.epoch
	var triples, shards int
	if w.cur != nil {
		triples = w.cur.set.NumTriples()
		shards = w.cur.m.Shards
	}
	w.mu.Unlock()
	return WorkerStats{
		Addr:         w.Addr(),
		Placement:    w.placement(),
		Stratum:      w.opts.Shard,
		Shards:       shards,
		Epoch:        epoch,
		Triples:      triples,
		ActiveRuns:   w.activeRuns.Load(),
		TotalRuns:    w.totalRuns.Load(),
		TotalWalks:   w.totalWalks.Load(),
		WireIn:       w.wireIn.Load(),
		WireOut:      w.wireOut.Load(),
		Swaps:        w.swaps.Load(),
		UptimeMillis: time.Since(w.start).Milliseconds(),
	}
}

// compileWire validates and compiles a query received from the wire. The
// peer is trusted (see the package trust model), but validation is cheap
// and turns a malformed query into a clean error instead of a panic.
func compileWire(q *query.Query) (*query.Plan, error) {
	if q == nil {
		return nil, fmt.Errorf("dist: request carries no query")
	}
	if err := q.Validate(); err != nil {
		if cerr := q.ValidateCyclic(); cerr != nil {
			return nil, err
		}
	}
	return query.CompileUnchecked(q)
}

func (w *Worker) handleInfo(c *conn, payload []byte) error {
	var req infoReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	pl, err := compileWire(req.Query)
	if err != nil {
		return err
	}
	e, _, err := w.acquire()
	if err != nil {
		return err
	}
	defer e.refs.Done()
	est, err := card.ByName(req.Estimator, e.stores...)
	if err != nil {
		return err
	}
	resp := infoResp{RootCards: make([]int64, len(req.Strata))}
	if req.Query.Distinct && !shard.Owned(pl) {
		resp.DistinctNotOwned = true
		return c.writeJSON(MsgInfoOK, resp)
	}
	for i, k := range req.Strata {
		if k < 0 || k >= e.set.K() {
			return fmt.Errorf("dist: stratum %d outside %d shards", k, e.set.K())
		}
		st := e.set.Store(k)
		if st == nil {
			return fmt.Errorf("dist: stratum %d is not local to this worker (own placement serves shard %d)", k, w.opts.Shard)
		}
		resp.RootCards[i] = int64(est.Scope(st).RootCount(pl).Value)
	}
	return c.writeJSON(MsgInfoOK, resp)
}

// handleRun executes one stratum's share of a distributed scatter-gather:
// the wps walkers the coordinator allocated, driven through exec.Drive
// with the coordinator's budget, streaming merged stratum snapshots (and
// heartbeats) until done. The connection is the cancellation channel: a
// MsgCancel frame or a disconnect stops the run.
func (w *Worker) handleRun(c *conn, payload []byte) error {
	var req runReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	pl, err := compileWire(req.Query)
	if err != nil {
		return err
	}
	if len(req.Seeds) == 0 {
		return fmt.Errorf("dist: run carries no walker seeds")
	}
	e, _, err := w.acquire()
	if err != nil {
		return err
	}
	defer e.refs.Done()
	if req.Stratum < 0 || req.Stratum >= e.set.K() {
		return fmt.Errorf("dist: stratum %d outside %d shards", req.Stratum, e.set.K())
	}
	if !e.set.Local(req.Stratum) {
		return fmt.Errorf("dist: stratum %d is not local to this worker (own placement serves shard %d)", req.Stratum, w.opts.Shard)
	}
	est, err := card.ByName(req.Estimator, e.stores...)
	if err != nil {
		return err
	}

	wps := len(req.Seeds)
	cache := shard.NewCache()

	// Leaf strata: the shard's semantic sub-strata when the coordinator
	// asked for them, one uniform leaf otherwise. Walker (l, j) derives its
	// seed from the coordinator's j-th seed so the non-stratified path stays
	// bit-identical to shard.RunScatter under equal quotas.
	var subs []index.RootStratum
	if req.Stratify {
		if req.MaxStrata > 255 {
			req.MaxStrata = 255 // the snap frame's count is one byte
		}
		subs = shard.SubStrata(e.set, pl, req.Stratum, req.MaxStrata)
	}
	L := len(subs)
	if L == 0 {
		L = 1
	}
	walkers := make([][]*walk.Walker, L)
	cards := make([]int, L)
	cardTotal := 0
	for l := 0; l < L; l++ {
		walkers[l] = make([]*walk.Walker, wps)
		for j := 0; j < wps; j++ {
			wo := shard.WalkerOptions{
				Threshold: req.Threshold,
				Seed:      req.Seeds[j],
				Cache:     cache,
				Estimator: est,
			}
			if subs != nil {
				wo.Root = &subs[l]
				wo.Seed = core.WorkerSeed(req.Seeds[j], l)
			}
			walkers[l][j], err = shard.NewWalker(e.set, pl, req.Stratum, wo)
			if err != nil {
				return err
			}
		}
		cards[l] = walkers[l][0].RootCard()
		cardTotal += cards[l]
	}

	w.activeRuns.Add(1)
	w.totalRuns.Add(1)
	defer w.activeRuns.Add(-1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The connection doubles as the cancel channel.
	go func() {
		for {
			typ, _, err := c.readFrame()
			if err != nil || typ == MsgCancel {
				cancel()
				return
			}
		}
	}()

	interval := time.Duration(req.IntervalMillis) * time.Millisecond
	hb := heartbeatInterval
	if interval > 0 {
		hb = interval
	}

	var faults Faults
	if f := w.faults.Load(); f != nil && f.matches(req.Stratum) {
		faults = *f
	}
	hung := false
	snaps := 0
	var seq uint32
	sendSnap := func(accs []*wj.Acc) error {
		if hung {
			return nil
		}
		seq++
		wb := wbuf{}
		wb.u32(seq)
		wb.u8(byte(len(accs))) // 0 = heartbeat only
		for _, a := range accs {
			wb.b = appendAcc(wb.b, a)
		}
		if err := c.writeFrame(MsgSnap, wb.b); err != nil {
			return err
		}
		snaps++
		if faults.KillAfterSnaps > 0 && snaps >= faults.KillAfterSnaps {
			w.Kill()
			return fmt.Errorf("dist: fault injection: killed after %d snapshots", snaps)
		}
		if faults.HangAfterSnaps > 0 && snaps >= faults.HangAfterSnaps {
			hung = true
		}
		return nil
	}

	o := exec.Options{
		Budget:   time.Duration(req.BudgetMillis) * time.Millisecond,
		MaxWalks: req.MaxWalksPerW,
		Batch:    req.Batch,
		Interval: interval,
	}
	// With sub-strata the stratum's budget splits across leaves by root
	// cardinality, exactly as the coordinator split the global budget across
	// shards (the pool goroutines cannot re-run Neyman allocation; in-process
	// single-threaded steppers do, see shard.Scatter).
	perLeaf := make([]exec.Options, L)
	for l, a := range shard.Allocate(cards, o.MaxWalks, o.Batch, 1) {
		perLeaf[l] = o
		if L > 1 && cardTotal > 0 {
			perLeaf[l].MaxWalks, perLeaf[l].Batch = a.MaxWalks, a.Batch
		}
	}
	// Snapshots (or bare heartbeats before the first clone) go out every
	// heartbeat; the walkers' latest clones are merged per leaf.
	errs := exec.DrivePools(ctx, walkers, perLeaf, hb, func(accs []*wj.Acc) bool {
		if err := sendSnap(accs); err != nil {
			cancel()
			return false
		}
		return true
	})

	if hung {
		// Fault injection: present a wedged worker — no Done, connection
		// held open until the peer gives up.
		<-ctx.Done()
		return nil
	}

	// Final per-leaf accumulators: walkers merged in pool order within each
	// leaf, leaves leaf-ascending — exactly as RunScatter's finish does, so
	// a distributed run is bit-identical to the in-process one under the
	// same seeds and quotas.
	done := runDone{Strata: L}
	var tips core.TipDiag
	finalAccs := make([]*wj.Acc, 0, L)
	for l := 0; l < L; l++ {
		m := wj.NewAcc() // owned-distinct walkers use plain accumulators
		for _, wk := range walkers[l] {
			m.Merge(wk.Acc())
			done.Tipped += wk.Tipped()
			tips.Merge(wk.TipDiag())
		}
		done.RootCard += int64(cards[l])
		done.Walks += m.N
		finalAccs = append(finalAccs, m)
	}
	for l := 0; l < L; l++ {
		for _, wk := range walkers[l] {
			if err := wk.Err(); err != nil {
				return fmt.Errorf("dist: peer shard failed mid-run: %w", err)
			}
		}
	}
	for _, err := range errs {
		if err != nil && ctx.Err() == nil {
			return err
		}
	}
	cs := cache.Stats()
	done.CacheHits, done.CacheMisses = cs.Hits, cs.Misses
	if tipsJSON, err := json.Marshal(tips); err == nil {
		done.Tips = tipsJSON
	}
	w.totalWalks.Add(done.Walks)

	trailer, err := json.Marshal(done)
	if err != nil {
		return err
	}
	wb := wbuf{}
	wb.u32(uint32(len(trailer)))
	wb.b = append(wb.b, trailer...)
	wb.u8(byte(len(finalAccs)))
	for _, a := range finalAccs {
		wb.b = appendAcc(wb.b, a)
	}
	return c.writeFrame(MsgDone, wb.b)
}

// handleExact runs the exact enumeration over the hybrid set — the
// fallback for COUNT(DISTINCT) plans the stratified estimator cannot serve
// — and returns the group map in one response.
func (w *Worker) handleExact(c *conn, payload []byte) error {
	var req exactReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	var pl *query.Plan
	var up *query.UnionPlan
	var err error
	if req.Union != nil {
		up, err = query.CompileUnion(req.Union)
	} else {
		pl, err = compileWire(req.Query)
	}
	if err != nil {
		return err
	}
	e, _, err := w.acquire()
	if err != nil {
		return err
	}
	defer e.refs.Done()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if req.BudgetMillis > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(req.BudgetMillis)*time.Millisecond)
		defer tcancel()
	}
	go func() {
		for {
			typ, _, err := c.readFrame()
			if err != nil || typ == MsgCancel {
				cancel()
				return
			}
		}
	}()

	var counts map[rdf.ID]float64
	if up != nil {
		counts, err = walk.ExactUnion(ctx, e.set, up)
	} else {
		counts, err = e.set.ExactCtx(ctx, pl)
	}
	if err != nil {
		return err
	}
	return c.writeFrame(MsgExactOK, appendGroups(nil, counts))
}

func (w *Worker) handleOpenPlan(c *conn, payload []byte, plans map[uint64]*servedPlan) error {
	var req openPlanReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	pl, err := compileWire(req.Query)
	if err != nil {
		return err
	}
	e, _, err := w.acquire()
	if err != nil {
		return err
	}
	view := shard.NewStoreView(e.own, pl)
	if old, ok := plans[req.Plan]; ok {
		old.e.refs.Done()
	}
	plans[req.Plan] = &servedPlan{pl: pl, view: view, e: e}

	// Reply with every step's access shape so the client can serve static
	// steps without a round trip: u8 (bit0 ok, bit1 static) | lo | hi.
	wb := wbuf{}
	wb.u32(uint32(len(pl.Steps)))
	b := pl.NewBindings()
	for i := range pl.Steps {
		var flags byte
		var sp index.Span
		if pl.Steps[i].Static {
			flags |= 2
			if s, ok := view.Resolve(i, b); ok {
				flags |= 1
				sp = s
			}
		}
		wb.u8(flags)
		appendSpan(&wb, sp)
	}
	return c.writeFrame(MsgOpenPlanOK, wb.b)
}

func (w *Worker) handleViewRPC(c *conn, typ byte, payload []byte, plans map[uint64]*servedPlan) error {
	if typ == MsgContains {
		r := rbuf{b: payload}
		t := readTriple(&r)
		if r.err != nil {
			return r.err
		}
		e, _, err := w.acquire()
		if err != nil {
			return err
		}
		ok := e.own.Contains(t)
		e.refs.Done()
		var v byte
		if ok {
			v = 1
		}
		return c.writeFrame(MsgContainsOK, []byte{v})
	}

	r := rbuf{b: payload}
	id := r.u64()
	step := int(r.u32())
	sp, ok := plans[id]
	if !ok {
		return fmt.Errorf("dist: view RPC for unregistered plan %d", id)
	}
	if step < 0 || step >= len(sp.pl.Steps) {
		return fmt.Errorf("dist: view RPC step %d outside plan", step)
	}
	switch typ {
	case MsgResolve:
		nv := int(r.u32())
		if r.err != nil || nv != sp.pl.NumVars() {
			return fmt.Errorf("dist: resolve with %d bindings, plan has %d vars", nv, sp.pl.NumVars())
		}
		b := make(query.Bindings, nv)
		for i := range b {
			b[i] = rdf.ID(r.u32())
		}
		if r.err != nil {
			return r.err
		}
		span, ok := sp.view.Resolve(step, b)
		wb := wbuf{}
		if ok {
			wb.u8(1)
		} else {
			wb.u8(0)
		}
		appendSpan(&wb, span)
		return c.writeFrame(MsgResolveOK, wb.b)
	case MsgRead:
		span := readSpan(&r)
		off := int(r.u32())
		max := int(r.u32())
		if r.err != nil {
			return r.err
		}
		if max <= 0 || max > enumReadMax {
			max = enumReadMax
		}
		triples := sp.view.Read(step, span, off, max, nil)
		wb := wbuf{}
		wb.u32(uint32(len(triples)))
		for _, t := range triples {
			appendTriple(&wb, t)
		}
		return c.writeFrame(MsgReadOK, wb.b)
	case MsgAt:
		span := readSpan(&r)
		n := int(r.u32())
		if r.err != nil {
			return r.err
		}
		if n < 0 || n >= span.Len() {
			return fmt.Errorf("dist: At index %d outside span of %d", n, span.Len())
		}
		t := sp.view.At(step, span, n)
		wb := wbuf{}
		appendTriple(&wb, t)
		return c.writeFrame(MsgAtOK, wb.b)
	}
	return fmt.Errorf("dist: unknown view RPC 0x%02x", typ)
}

// enumReadMax bounds one MsgRead response.
const enumReadMax = 8192

func (w *Worker) handleSwapPrep(c *conn, payload []byte) error {
	var req swapReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	e, err := w.loadEpochMode(req.Path, !req.Mmap)
	if err != nil {
		return err
	}
	w.mu.Lock()
	old := w.pending
	w.pending = e
	epoch := w.epoch
	w.mu.Unlock()
	if old != nil {
		old.set.Close()
	}
	return c.writeJSON(MsgSwapReady, swapInfo{
		Epoch:      epoch + 1,
		Shards:     e.m.Shards,
		ConfigHash: e.m.ConfigHash,
		DictLen:    e.set.Dict().Len(),
	})
}

func (w *Worker) handleSwapCommit(c *conn) error {
	w.mu.Lock()
	if w.pending == nil {
		w.mu.Unlock()
		return fmt.Errorf("dist: swap commit without a prepared epoch")
	}
	old := w.cur
	w.cur = w.pending
	w.pending = nil
	w.epoch++
	w.mu.Unlock()
	w.swaps.Add(1)
	if old != nil {
		// Drain in-flight runs on the old epoch before unmapping it.
		old.refs.Wait()
		old.set.Close()
	}
	return c.writeFrame(MsgSwapOK, nil)
}

func (w *Worker) handleSwapAbort(c *conn) error {
	w.mu.Lock()
	old := w.pending
	w.pending = nil
	w.mu.Unlock()
	if old != nil {
		old.set.Close()
	}
	return c.writeFrame(MsgSwapOK, nil)
}
