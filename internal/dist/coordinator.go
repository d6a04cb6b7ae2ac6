package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/exec"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// dialTimeout bounds connection establishment to a worker.
const dialTimeout = 10 * time.Second

// minStallTimeout floors the per-frame read deadline of a run stream.
// Workers heartbeat at least every 500ms, so two seconds of silence means
// the worker is gone or wedged, not merely busy.
const minStallTimeout = 2 * time.Second

// workerRef is the coordinator's handle on one fleet member.
type workerRef struct {
	addr      string
	placement string
	stratum   int // own placement: the one stratum this worker roots; -1 = any
	down      atomic.Bool
	lastErr   atomic.Pointer[string]

	runs   atomic.Int64
	wireIn atomic.Int64
	wireOu atomic.Int64
}

func (w *workerRef) canServe(stratum int) bool {
	return w.stratum < 0 || w.stratum == stratum
}

func (w *workerRef) fail(err error) {
	w.down.Store(true)
	s := err.Error()
	w.lastErr.Store(&s)
}

// Coordinator drives distributed scatter-gather over a fleet of kgworkers:
// stratified budget allocation proportional to per-shard root cardinality,
// one run stream per stratum with progressive merged snapshots through the
// exec.Drive contract, CI merging via wj.MergeStratified, and stratum
// re-allocation to surviving workers on worker loss.
type Coordinator struct {
	workers    []*workerRef
	k          int
	configHash uint32
	dictLen    int

	totalRuns atomic.Int64
	retries   atomic.Int64
	retrySeq  atomic.Int64
}

// Dial connects to every worker address, handshakes, and verifies the
// fleet serves one coherent shard set: same shard count, same manifest
// config hash, same dictionary length. Every worker must be reachable at
// dial time; losing one later is handled by per-run re-allocation.
func Dial(ctx context.Context, addrs []string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	c := &Coordinator{}
	for i, addr := range addrs {
		hello, err := helloWorker(ctx, addr)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %s: %w", addr, err)
		}
		if i == 0 {
			c.k = hello.Shards
			c.configHash = hello.ConfigHash
			c.dictLen = hello.DictLen
		} else if hello.Shards != c.k || hello.ConfigHash != c.configHash || hello.DictLen != c.dictLen {
			return nil, fmt.Errorf(
				"dist: worker %s serves %d shards / config %08x / dict %d, fleet has %d / %08x / %d — mixed shard sets",
				addr, hello.Shards, hello.ConfigHash, hello.DictLen, c.k, c.configHash, c.dictLen)
		}
		c.workers = append(c.workers, &workerRef{
			addr:      addr,
			placement: hello.Placement,
			stratum:   hello.Stratum,
		})
	}
	// Every stratum must have at least one worker able to root it.
	for k := 0; k < c.k; k++ {
		if c.pick(k, nil) == nil {
			return nil, fmt.Errorf("dist: no worker can serve stratum %d", k)
		}
	}
	return c, nil
}

func helloWorker(ctx context.Context, addr string) (*helloResp, error) {
	cc, err := dialConn(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	if err := cc.writeJSON(MsgHello, helloReq{Proto: ProtoVersion}); err != nil {
		return nil, err
	}
	payload, err := cc.expect(MsgHelloOK)
	if err != nil {
		return nil, err
	}
	var hello helloResp
	if err := json.Unmarshal(payload, &hello); err != nil {
		return nil, err
	}
	if hello.Proto != ProtoVersion {
		return nil, fmt.Errorf("dist: worker speaks protocol %d, want %d", hello.Proto, ProtoVersion)
	}
	return &hello, nil
}

func dialConn(ctx context.Context, addr string) (*conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(nc), nil
}

// K returns the fleet's shard count.
func (c *Coordinator) K() int { return c.k }

// DictLen returns the fleet's shared dictionary length.
func (c *Coordinator) DictLen() int { return c.dictLen }

// Workers returns the fleet's worker addresses.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.addr
	}
	return out
}

// pick returns the preferred live worker for a stratum, rotating the
// starting point by stratum so load spreads, skipping workers in tried.
// nil means no live worker can serve the stratum.
func (c *Coordinator) pick(stratum int, tried map[*workerRef]bool) *workerRef {
	n := len(c.workers)
	for off := 0; off < n; off++ {
		w := c.workers[(stratum+off)%n]
		if w.down.Load() || tried[w] || !w.canServe(stratum) {
			continue
		}
		return w
	}
	return nil
}

// RunOptions configure one distributed run, mirroring shard.ScatterOptions
// with the estimator passed by name (it is constructed worker-side).
type RunOptions struct {
	// Threshold is the Audit Join tipping point (core.Options semantics).
	Threshold float64
	// Seed is the base seed; walker w of stratum k derives
	// core.WorkerSeed(Seed, k*WorkersPerShard+w) — the same derivation
	// shard.RunScatter uses, which is what makes a distributed run
	// bit-identical to the in-process one under equal quotas.
	Seed int64
	// WorkersPerShard sizes each stratum's worker-side walker pool.
	WorkersPerShard int
	// Estimator names the cardinality estimator ("" = span statistics).
	Estimator string
	// StallTimeout is how long a run stream may be silent before its
	// worker is declared lost. Zero derives max(3×Interval, 2s).
	StallTimeout time.Duration
	// Stratify asks every worker to nest semantic root strata
	// (characteristic-set buckets, shard.SubStrata) inside its shard
	// stratum; snapshots then stream one accumulator per sub-stratum and
	// the coordinator flat-merges all leaves. MaxStrata caps the sub-strata
	// per shard (< 2 selects index.DefaultMaxStrata).
	Stratify  bool
	MaxStrata int
}

// RetryRecord documents one stratum re-allocation after worker loss.
type RetryRecord struct {
	Stratum int    `json:"stratum"`
	From    string `json:"from"`
	To      string `json:"to"`
	Err     string `json:"err"`
}

// RunStats extends shard.ScatterStats with the distribution telemetry the
// ISSUE's observability contract needs: which worker served each stratum,
// every re-allocation, and wire traffic.
type RunStats struct {
	shard.ScatterStats
	// StratumWorkers[k] is the address that delivered stratum k's result
	// ("" for empty strata).
	StratumWorkers []string `json:"stratum_workers"`
	// Reallocations lists each worker-loss retry, aligned with
	// ScatterStats.Retries.
	Reallocations []RetryRecord `json:"reallocations,omitempty"`
	WireInBytes   int64         `json:"wire_in_bytes"`
	WireOutBytes  int64         `json:"wire_out_bytes"`
}

// stratumResult is one stratum's completed run. accs holds one
// accumulator per semantic sub-stratum (exactly one when the shard did not
// stratify).
type stratumResult struct {
	accs []*wj.Acc
	done runDone
	addr string
}

// Run executes one distributed scatter-gather. The contract matches
// shard.RunScatter: xopts.MaxWalks is the TOTAL walk budget split across
// strata proportionally to root cardinality, Budget is the shared
// wall-clock deadline, progressive snapshots merge all strata and flow
// through xopts.OnSnapshot (returning false cancels the fleet), and the
// final result merges CIs with wj.MergeStratified. On worker loss the lost
// stratum re-runs in full on a surviving worker with fresh seeds.
func (c *Coordinator) Run(ctx context.Context, q *query.Query, opts RunOptions, xopts exec.Options) (_ wj.Result, rstats RunStats, _ error) {
	pl, err := compileWire(q)
	if err != nil {
		return wj.Result{}, RunStats{}, err
	}
	K := c.k
	rstats = RunStats{
		ScatterStats: shard.ScatterStats{
			PerShard:  make([]shard.ShardRunStats, K),
			Estimator: estimatorName(opts.Estimator),
		},
		StratumWorkers: make([]string, K),
	}
	c.totalRuns.Add(1)

	var wireIn, wireOut atomic.Int64
	settle := func() {
		rstats.WireInBytes = wireIn.Load()
		rstats.WireOutBytes = wireOut.Load()
	}
	defer settle()

	if q.Distinct && !shard.Owned(pl) {
		rstats.ExactFallback = true
		res, err := c.runExact(ctx, q, nil, xopts, &wireIn, &wireOut)
		if err == nil && xopts.OnSnapshot != nil {
			xopts.OnSnapshot(exec.Progress{Seq: 1, Snapshot: res, Final: true})
		}
		return res, rstats, err
	}
	rstats.OwnedDistinct = q.Distinct

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	wps := opts.WorkersPerShard
	if wps < 1 {
		wps = 1
	}

	// Phase 1: per-stratum root cardinalities, grouped by assigned worker.
	cards, err := c.rootCards(ctx, q, opts, &wireIn, &wireOut, &rstats)
	if err != nil {
		return wj.Result{}, rstats, err
	}
	total := 0
	icards := make([]int, K)
	for k := 0; k < K; k++ {
		icards[k] = int(cards[k])
		rstats.PerShard[k].RootCard = icards[k]
		total += icards[k]
	}
	if total == 0 {
		res := wj.MergeStratified(nil, stats.Z95)
		if xopts.OnSnapshot != nil {
			xopts.OnSnapshot(exec.Progress{Seq: 1, Snapshot: res, Final: true})
		}
		return res, rstats, nil
	}

	// Phase 2: allocation — shard.Allocate, as in shard.RunScatter, so equal
	// seeds yield equal walks.
	alloc := shard.Allocate(icards, xopts.MaxWalks, xopts.Batch, wps)
	reqs := make([]runReq, K)
	for k := 0; k < K; k++ {
		if cards[k] == 0 {
			continue
		}
		seeds := make([]int64, wps)
		for j := 0; j < wps; j++ {
			seeds[j] = core.WorkerSeed(opts.Seed, k*wps+j)
		}
		reqs[k] = runReq{
			Query:          q,
			Stratum:        k,
			Seeds:          seeds,
			MaxWalksPerW:   alloc[k].MaxWalks,
			Batch:          alloc[k].Batch,
			BudgetMillis:   xopts.Budget.Milliseconds(),
			IntervalMillis: xopts.Interval.Milliseconds(),
			Threshold:      opts.Threshold,
			Estimator:      opts.Estimator,
			Stratify:       opts.Stratify,
			MaxStrata:      opts.MaxStrata,
		}
	}

	stall := opts.StallTimeout
	if stall <= 0 {
		stall = 3 * xopts.Interval
		if stall < minStallTimeout {
			stall = minStallTimeout
		}
	}

	// Phase 3: one stream per non-empty stratum, with retry re-allocation.
	var mu sync.Mutex // guards latest, finals, rstats.Reallocations
	latest := make([][]*wj.Acc, K)
	finals := make([]*stratumResult, K)
	var stopped atomic.Bool

	mergedLocked := func() wj.Result {
		accs := make([]*wj.Acc, 0, K)
		for k := 0; k < K; k++ {
			if cards[k] == 0 {
				continue
			}
			if f := finals[k]; f != nil {
				accs = append(accs, f.accs...)
			} else if latest[k] != nil {
				accs = append(accs, latest[k]...)
			}
		}
		return wj.MergeStratified(accs, stats.Z95)
	}

	start := time.Now()
	seq := 0
	onSnap := xopts.OnSnapshot
	publish := func(final bool) bool {
		mu.Lock()
		merged := mergedLocked()
		mu.Unlock()
		seq++
		ok := onSnap(exec.Progress{
			Seq:      seq,
			Elapsed:  time.Since(start),
			Walks:    merged.Walks,
			Snapshot: merged,
			Final:    final,
		})
		if !ok {
			stopped.Store(true)
			cancel()
		}
		return ok
	}
	stopPub := func() {}
	if onSnap != nil && xopts.Interval > 0 {
		stopPub = exec.Every(xopts.Interval, func() bool { return publish(false) })
	}

	var wg sync.WaitGroup
	errs := make([]error, K)
	for k := 0; k < K; k++ {
		if cards[k] == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = c.runStratum(ctx, k, reqs[k], wps, opts.Seed, stall, &wireIn, &wireOut,
				func(a []*wj.Acc) {
					mu.Lock()
					latest[k] = a
					mu.Unlock()
				},
				func(r *stratumResult) {
					mu.Lock()
					finals[k] = r
					mu.Unlock()
				},
				func(rec RetryRecord) {
					mu.Lock()
					rstats.Reallocations = append(rstats.Reallocations, rec)
					rstats.Retries++
					mu.Unlock()
					c.retries.Add(1)
				})
		}(k)
	}
	wg.Wait()
	stopPub()

	// Finish: strata k-ascending, empty strata skipped — shard.RunScatter's
	// merge order.
	mu.Lock()
	accs := make([]*wj.Acc, 0, K)
	for k := 0; k < K; k++ {
		if cards[k] == 0 {
			continue
		}
		f := finals[k]
		if f == nil {
			accs = append(accs, latest[k]...) // stopped early: best progressive state
			continue
		}
		accs = append(accs, f.accs...)
		rstats.Strata += f.done.Strata
		rstats.PerShard[k].Walks = f.done.Walks
		rstats.PerShard[k].Tipped = f.done.Tipped
		rstats.Cache.Hits += f.done.CacheHits
		rstats.Cache.Misses += f.done.CacheMisses
		rstats.StratumWorkers[k] = f.addr
		if len(f.done.Tips) > 0 {
			var tips core.TipDiag
			if json.Unmarshal(f.done.Tips, &tips) == nil {
				rstats.Tips.Merge(tips)
			}
		}
	}
	mu.Unlock()
	res := wj.MergeStratified(accs, stats.Z95)

	for _, err := range errs {
		if err != nil && !(stopped.Load() && errors.Is(err, context.Canceled)) {
			return res, rstats, err
		}
	}
	if onSnap != nil && !stopped.Load() {
		seq++
		onSnap(exec.Progress{
			Seq:      seq,
			Elapsed:  time.Since(start),
			Walks:    res.Walks,
			Snapshot: res,
			Final:    true,
		})
	}
	return res, rstats, nil
}

func estimatorName(name string) string {
	if name == "" {
		return card.EstimatorSpan
	}
	return name
}

// rootCards fans the cardinality probe out, grouping strata by their
// preferred worker and re-asking survivors for a failed worker's strata.
func (c *Coordinator) rootCards(ctx context.Context, q *query.Query, opts RunOptions, wireIn, wireOut *atomic.Int64, rstats *RunStats) ([]int64, error) {
	cards := make([]int64, c.k)
	pending := make([]int, 0, c.k)
	for k := 0; k < c.k; k++ {
		pending = append(pending, k)
	}
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt > len(c.workers) {
			return nil, fmt.Errorf("dist: no live worker can report root cardinalities for strata %v", pending)
		}
		// Group the pending strata by preferred worker.
		groups := make(map[*workerRef][]int)
		for _, k := range pending {
			w := c.pick(k, nil)
			if w == nil {
				return nil, fmt.Errorf("dist: no live worker can serve stratum %d", k)
			}
			groups[w] = append(groups[w], k)
		}
		pending = pending[:0]
		for w, strata := range groups {
			got, err := c.infoOne(ctx, w, q, strata, opts.Estimator, wireIn, wireOut)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				w.fail(err)
				pending = append(pending, strata...)
				continue
			}
			if got.DistinctNotOwned {
				return nil, shard.ErrDistinctNotOwned
			}
			if len(got.RootCards) != len(strata) {
				return nil, fmt.Errorf("dist: worker %s reported %d cardinalities for %d strata", w.addr, len(got.RootCards), len(strata))
			}
			for i, k := range strata {
				cards[k] = got.RootCards[i]
			}
		}
	}
	return cards, nil
}

func (c *Coordinator) infoOne(ctx context.Context, w *workerRef, q *query.Query, strata []int, estimator string, wireIn, wireOut *atomic.Int64) (*infoResp, error) {
	cc, err := dialConn(ctx, w.addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		wireIn.Add(cc.in.Load())
		wireOut.Add(cc.out.Load())
		w.wireIn.Add(cc.in.Load())
		w.wireOu.Add(cc.out.Load())
		cc.Close()
	}()
	if err := cc.writeJSON(MsgInfo, infoReq{Query: q, Strata: strata, Estimator: estimator}); err != nil {
		return nil, err
	}
	cc.c.SetReadDeadline(time.Now().Add(dialTimeout))
	payload, err := cc.expect(MsgInfoOK)
	if err != nil {
		return nil, err
	}
	var resp infoResp
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// runStratum drives one stratum to completion, re-allocating to surviving
// workers when the serving worker is lost. A retry discards the lost
// worker's partial accumulator and re-runs the stratum's full quota under
// FRESH seeds (offset past every first-attempt seed), keeping the stratum
// estimate unbiased — partial streams must not be merged with a re-run
// because the overlapping walks would be double-counted.
func (c *Coordinator) runStratum(ctx context.Context, k int, req runReq, wps int, baseSeed int64, stall time.Duration, wireIn, wireOut *atomic.Int64, onAcc func([]*wj.Acc), onDone func(*stratumResult), onRetry func(RetryRecord)) error {
	tried := make(map[*workerRef]bool)
	var prev *workerRef
	for {
		w := c.pick(k, tried)
		if w == nil {
			// Everyone tried: allow re-use of still-up workers (a worker that
			// merely returned a query error would fail again, so only retry
			// the fleet once over).
			return fmt.Errorf("dist: stratum %d: no live worker left to run it", k)
		}
		if prev != nil {
			onRetry(RetryRecord{Stratum: k, From: prev.addr, To: w.addr, Err: prevErr(prev)})
			// Fresh, non-overlapping seeds for the re-run.
			rs := c.retrySeq.Add(1)
			seeds := make([]int64, wps)
			for j := 0; j < wps; j++ {
				seeds[j] = core.WorkerSeed(baseSeed, c.k*wps+int(rs)*wps+j)
			}
			req.Seeds = seeds
		}
		err := c.streamRun(ctx, w, k, req, stall, wireIn, wireOut, onAcc, onDone)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		w.fail(err)
		tried[w] = true
		// Discard the lost worker's partial progressive state.
		onAcc(nil)
		prev = w
	}
}

func prevErr(w *workerRef) string {
	if s := w.lastErr.Load(); s != nil {
		return *s
	}
	return ""
}

// streamRun opens one run stream and consumes it to MsgDone.
func (c *Coordinator) streamRun(ctx context.Context, w *workerRef, k int, req runReq, stall time.Duration, wireIn, wireOut *atomic.Int64, onAcc func([]*wj.Acc), onDone func(*stratumResult)) error {
	cc, err := dialConn(ctx, w.addr)
	if err != nil {
		return err
	}
	w.runs.Add(1)
	defer func() {
		wireIn.Add(cc.in.Load())
		wireOut.Add(cc.out.Load())
		w.wireIn.Add(cc.in.Load())
		w.wireOu.Add(cc.out.Load())
		cc.Close()
	}()
	// Cancellation: closing the connection is the cancel signal the worker
	// acts on (its run context is bound to the conn).
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			cc.writeFrame(MsgCancel, nil)
			cc.Close()
		case <-watchDone:
		}
	}()

	if err := cc.writeJSON(MsgRun, req); err != nil {
		return err
	}
	for {
		cc.c.SetReadDeadline(time.Now().Add(stall))
		typ, payload, err := cc.readFrame()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: stratum %d stream from %s: %w", k, w.addr, err)
		}
		switch typ {
		case MsgSnap:
			rb := rbuf{b: payload}
			_ = rb.u32() // seq
			if n := int(rb.u8()); n > 0 {
				accs := make([]*wj.Acc, 0, n)
				for i := 0; i < n; i++ {
					a, err := decodeAcc(&rb)
					if err != nil {
						return err
					}
					accs = append(accs, a)
				}
				onAcc(accs)
			}
		case MsgDone:
			rb := rbuf{b: payload}
			n := int(rb.u32())
			if rb.err != nil || n > len(rb.b) {
				return fmt.Errorf("dist: malformed done trailer from %s", w.addr)
			}
			var done runDone
			if err := json.Unmarshal(rb.b[:n], &done); err != nil {
				return err
			}
			rb.b = rb.b[n:]
			accs := make([]*wj.Acc, 0, 1)
			for i, na := 0, int(rb.u8()); i < na; i++ {
				acc, err := decodeAcc(&rb)
				if err != nil {
					return err
				}
				accs = append(accs, acc)
			}
			onDone(&stratumResult{accs: accs, done: done, addr: w.addr})
			return nil
		case MsgErr:
			var ep errPayload
			if json.Unmarshal(payload, &ep) == nil && ep.Msg != "" {
				return fmt.Errorf("dist: worker %s: %s", w.addr, ep.Msg)
			}
			return fmt.Errorf("dist: worker %s failed the run", w.addr)
		default:
			return fmt.Errorf("dist: unexpected frame 0x%02x in run stream", typ)
		}
	}
}

// Exact evaluates the plan's exact grouped count on any live worker (the
// engine behind a distributed epoch's ctj/lftj/baseline chart engines),
// retrying on worker loss. budget, when positive, bounds the worker-side
// evaluation; the context cancels it either way.
func (c *Coordinator) Exact(ctx context.Context, q *query.Query, budget time.Duration) (map[rdf.ID]float64, error) {
	var wireIn, wireOut atomic.Int64
	res, err := c.runExact(ctx, q, nil, exec.Options{Budget: budget}, &wireIn, &wireOut)
	if err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

// ExactUnion evaluates a union exactly on one live worker, which shares the
// DISTINCT dedup set and AVG numerator/denominator across branches against
// its hybrid Source over the whole set — the semantics a merge of
// per-branch exact results cannot reproduce. Retries on worker loss like
// Exact.
func (c *Coordinator) ExactUnion(ctx context.Context, u *query.UnionQuery, budget time.Duration) (map[rdf.ID]float64, error) {
	var wireIn, wireOut atomic.Int64
	res, err := c.runExact(ctx, nil, u, exec.Options{Budget: budget}, &wireIn, &wireOut)
	if err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

// runExact evaluates the exact fallback on any live worker (replicate
// workers hold the whole set; own-placement workers reach peers through
// their hybrid Source), retrying on worker loss.
func (c *Coordinator) runExact(ctx context.Context, q *query.Query, u *query.UnionQuery, xopts exec.Options, wireIn, wireOut *atomic.Int64) (wj.Result, error) {
	tried := make(map[*workerRef]bool)
	for {
		var w *workerRef
		for _, cand := range c.workers {
			if !cand.down.Load() && !tried[cand] {
				w = cand
				break
			}
		}
		if w == nil {
			return wj.Result{}, fmt.Errorf("dist: no live worker left for the exact fallback")
		}
		counts, err := c.exactOne(ctx, w, q, u, xopts, wireIn, wireOut)
		if err == nil {
			res := wj.Result{Estimates: counts, CI: make(map[rdf.ID]float64)}
			if res.Estimates == nil {
				res.Estimates = make(map[rdf.ID]float64)
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return wj.Result{}, err
		}
		w.fail(err)
		tried[w] = true
	}
}

func (c *Coordinator) exactOne(ctx context.Context, w *workerRef, q *query.Query, u *query.UnionQuery, xopts exec.Options, wireIn, wireOut *atomic.Int64) (map[rdf.ID]float64, error) {
	cc, err := dialConn(ctx, w.addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		wireIn.Add(cc.in.Load())
		wireOut.Add(cc.out.Load())
		cc.Close()
	}()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			cc.writeFrame(MsgCancel, nil)
			cc.Close()
		case <-watchDone:
		}
	}()
	if err := cc.writeJSON(MsgExact, exactReq{Query: q, Union: u, BudgetMillis: xopts.Budget.Milliseconds()}); err != nil {
		return nil, err
	}
	if xopts.Budget > 0 {
		cc.c.SetReadDeadline(time.Now().Add(xopts.Budget + dialTimeout))
	}
	payload, err := cc.expect(MsgExactOK)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	rb := rbuf{b: payload}
	return decodeGroups(&rb)
}

// WorkerHealth is one fleet member's health snapshot.
type WorkerHealth struct {
	Addr  string       `json:"addr"`
	Up    bool         `json:"up"`
	Err   string       `json:"err,omitempty"`
	Stats *WorkerStats `json:"stats,omitempty"`
}

// Health polls every worker's stats in parallel.
func (c *Coordinator) Health(ctx context.Context) []WorkerHealth {
	out := make([]WorkerHealth, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *workerRef) {
			defer wg.Done()
			out[i] = WorkerHealth{Addr: w.addr}
			cc, err := dialConn(ctx, w.addr)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			defer cc.Close()
			if err := cc.writeFrame(MsgStats, nil); err != nil {
				out[i].Err = err.Error()
				return
			}
			cc.c.SetReadDeadline(time.Now().Add(dialTimeout))
			payload, err := cc.expect(MsgStatsOK)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			var ws WorkerStats
			if err := json.Unmarshal(payload, &ws); err != nil {
				out[i].Err = err.Error()
				return
			}
			out[i].Up = true
			out[i].Stats = &ws
			w.down.Store(false) // a reachable worker rejoins the pool
		}(i, w)
	}
	wg.Wait()
	return out
}

// Retries returns the coordinator-lifetime count of stratum
// re-allocations.
func (c *Coordinator) Retries() int64 { return c.retries.Load() }

// TotalRuns returns the coordinator-lifetime run count.
func (c *Coordinator) TotalRuns() int64 { return c.totalRuns.Load() }

// SwapAll hot-swaps the whole fleet to a new manifest with epoch
// coordination: phase one sends SwapPrep everywhere and aborts the fleet
// if ANY worker fails to load or the prepared epochs disagree on the shard
// configuration (all-or-nothing at the prepare stage); phase two commits,
// at which point each worker drains in-flight runs on its old epoch and
// releases it. The path must be valid on every worker's filesystem.
func (c *Coordinator) SwapAll(ctx context.Context, path string, mmap bool) error {
	conns := make([]*conn, len(c.workers))
	infos := make([]swapInfo, len(c.workers))
	abort := func(upTo int) {
		for i := 0; i < upTo; i++ {
			if conns[i] == nil {
				continue
			}
			conns[i].writeFrame(MsgSwapAbort, nil)
			conns[i].c.SetReadDeadline(time.Now().Add(dialTimeout))
			conns[i].expect(MsgSwapOK)
			conns[i].Close()
		}
	}
	for i, w := range c.workers {
		cc, err := dialConn(ctx, w.addr)
		if err != nil {
			abort(i)
			return fmt.Errorf("dist: swap prepare: worker %s unreachable: %w", w.addr, err)
		}
		conns[i] = cc
		if err := cc.writeJSON(MsgSwapPrep, swapReq{Path: path, Mmap: mmap}); err != nil {
			abort(i + 1)
			return fmt.Errorf("dist: swap prepare on %s: %w", w.addr, err)
		}
	}
	for i, w := range c.workers {
		conns[i].c.SetReadDeadline(time.Now().Add(5 * time.Minute)) // snapshot loads can be slow
		payload, err := conns[i].expect(MsgSwapReady)
		if err != nil {
			abort(len(conns))
			return fmt.Errorf("dist: swap prepare on %s: %w", w.addr, err)
		}
		if err := json.Unmarshal(payload, &infos[i]); err != nil {
			abort(len(conns))
			return fmt.Errorf("dist: swap prepare on %s: %w", w.addr, err)
		}
		if i > 0 && (infos[i].Shards != infos[0].Shards || infos[i].ConfigHash != infos[0].ConfigHash || infos[i].DictLen != infos[0].DictLen) {
			abort(len(conns))
			return fmt.Errorf("dist: swap prepare: %s loaded %d shards / %08x / %d, %s loaded %d / %08x / %d — refusing a mixed fleet",
				w.addr, infos[i].Shards, infos[i].ConfigHash, infos[i].DictLen,
				c.workers[0].addr, infos[0].Shards, infos[0].ConfigHash, infos[0].DictLen)
		}
	}
	if infos[0].Shards != c.k {
		// A swap may change the shard count only if every worker can still
		// serve its strata; own-placement workers are pinned, so refuse.
		for _, w := range c.workers {
			if w.stratum >= 0 {
				abort(len(conns))
				return fmt.Errorf("dist: swap changes shard count %d→%d with own-placement workers pinned to strata", c.k, infos[0].Shards)
			}
		}
	}
	var firstErr error
	for i, w := range c.workers {
		if err := conns[i].writeFrame(MsgSwapCommit, nil); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: swap commit on %s: %w", w.addr, err)
			}
			conns[i].Close()
			continue
		}
		conns[i].c.SetReadDeadline(time.Now().Add(5 * time.Minute)) // commit drains in-flight runs
		if _, err := conns[i].expect(MsgSwapOK); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dist: swap commit on %s: %w", w.addr, err)
		}
		conns[i].Close()
	}
	if firstErr != nil {
		return firstErr
	}
	c.k = infos[0].Shards
	c.configHash = infos[0].ConfigHash
	c.dictLen = infos[0].DictLen
	return nil
}
