// Package dist runs the sharded scatter-gather of internal/shard across
// processes: kgworker serves one shard of a .kgm set over a small TCP
// protocol, and a Coordinator performs the stratified budget allocation,
// streams progressive per-stratum snapshots back through the exec.Drive
// contract, merges confidence intervals with wj.MergeStratified, and on
// worker loss re-allocates the lost stratum to a surviving worker.
//
// # Wire protocol
//
// Every message is one length-prefixed frame
//
//	u32le payload length | u8 message type | payload
//
// capped at 64 MiB. Control payloads are JSON (they are small and evolve);
// data payloads — accumulators, triples, spans — are little-endian binary
// mirroring internal/rdf's fixed-width encoding, because they sit on the
// per-snapshot and per-resolution hot paths. The protocol is strictly
// client-initiated: every frame from a worker answers a client frame,
// except during a run, where the worker streams MsgSnap frames (doubling
// as heartbeats for the coordinator's stall detector) and one terminal
// MsgDone or MsgErr while listening for MsgCancel.
//
// The protocol trusts its peers: workers validate queries but accept plans,
// budgets and swap paths from any connection, and the coordinator takes
// worker-supplied statistics at face value. Deployments must treat worker
// addresses like database sockets — reachable only from the serving tier.
// See DESIGN.md "Distributed scatter-gather" for the full trust model.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/wj"
)

// ProtoVersion gates the handshake: both sides must speak the same version.
// Version 2 added FILTER predicates to the query payloads; a v1 worker would
// decode a filtered query by silently DROPPING the unknown Filters field and
// return unfiltered (biased) strata, so the bump is a correctness gate, not
// a formality.
const ProtoVersion = 2

// MaxFrame bounds one frame's payload; larger frames are a protocol error.
const MaxFrame = 64 << 20

// Message types.
const (
	MsgErr        = 0x00 // JSON errPayload
	MsgHello      = 0x01 // JSON helloReq
	MsgHelloOK    = 0x02 // JSON helloResp
	MsgPing       = 0x03 // empty
	MsgPong       = 0x04 // empty
	MsgInfo       = 0x05 // JSON infoReq
	MsgInfoOK     = 0x06 // JSON infoResp
	MsgRun        = 0x07 // JSON runReq
	MsgSnap       = 0x08 // binary: u32 seq | u8 count | count × acc (0 = heartbeat)
	MsgDone       = 0x09 // binary: u32 jsonLen | JSON runDone | u8 count | count × acc
	MsgCancel     = 0x0A // empty (client -> worker, mid-run)
	MsgExact      = 0x0B // JSON exactReq
	MsgExactOK    = 0x0C // binary: u32 n | n * (u32 id | f64 value)
	MsgStats      = 0x0D // empty
	MsgStatsOK    = 0x0E // JSON WorkerStats
	MsgSwapPrep   = 0x0F // JSON swapReq
	MsgSwapReady  = 0x10 // JSON swapInfo
	MsgSwapCommit = 0x11 // empty
	MsgSwapAbort  = 0x12 // empty
	MsgSwapOK     = 0x13 // empty
	MsgOpenPlan   = 0x14 // JSON openPlanReq
	MsgOpenPlanOK = 0x15 // binary: u32 nsteps | nsteps * (u8 static<<1|ok | i64 lo | i64 hi)
	MsgResolve    = 0x16 // binary: u64 plan | u32 step | u32 nvars | nvars * u32
	MsgResolveOK  = 0x17 // binary: u8 ok | i64 lo | i64 hi
	MsgRead       = 0x18 // binary: u64 plan | u32 step | i64 lo | i64 hi | u32 off | u32 max
	MsgReadOK     = 0x19 // binary: u32 n | n * 3 * u32
	MsgAt         = 0x1A // binary: u64 plan | u32 step | i64 lo | i64 hi | u32 n
	MsgAtOK       = 0x1B // binary: 3 * u32
	MsgContains   = 0x1C // binary: 3 * u32
	MsgContainsOK = 0x1D // binary: u8
)

// Control payloads (JSON).

type errPayload struct {
	Msg string `json:"msg"`
}

type helloReq struct {
	Proto int `json:"proto"`
}

type helloResp struct {
	Proto      int    `json:"proto"`
	Shards     int    `json:"shards"`
	Stratum    int    `json:"stratum"` // the shard this worker roots walks in; -1 = any (replicate)
	Placement  string `json:"placement"`
	ConfigHash uint32 `json:"config_hash"`
	DictLen    int    `json:"dict_len"`
	Epoch      int64  `json:"epoch"`
}

type infoReq struct {
	Query     *query.Query `json:"query"`
	Strata    []int        `json:"strata"`
	Estimator string       `json:"estimator,omitempty"`
}

type infoResp struct {
	// RootCards aligns with the request's Strata.
	RootCards []int64 `json:"root_cards"`
	// DistinctNotOwned marks a COUNT(DISTINCT) plan the stratified
	// estimator cannot serve (shard.Owned is false); the coordinator falls
	// back to a worker-side exact evaluation.
	DistinctNotOwned bool `json:"distinct_not_owned,omitempty"`
}

type runReq struct {
	Query          *query.Query `json:"query"`
	Stratum        int          `json:"stratum"`
	Seeds          []int64      `json:"seeds"` // one walker per seed
	MaxWalksPerW   int64        `json:"max_walks_per_walker,omitempty"`
	Batch          int          `json:"batch,omitempty"`
	BudgetMillis   int64        `json:"budget_millis,omitempty"`
	IntervalMillis int64        `json:"interval_millis,omitempty"`
	Threshold      float64      `json:"threshold"`
	Estimator      string       `json:"estimator,omitempty"`
	// Stratify asks the worker to nest semantic root strata
	// (characteristic-set buckets) inside its shard stratum: each snapshot
	// and the done frame then carry one accumulator per sub-stratum, which
	// the coordinator flat-merges as independent strata. MaxStrata caps the
	// sub-strata (< 2 selects index.DefaultMaxStrata).
	Stratify  bool `json:"stratify,omitempty"`
	MaxStrata int  `json:"max_strata,omitempty"`
}

// runDone is the JSON trailer of MsgDone: the stratum's run statistics,
// mirroring one shard.ShardRunStats plus cache and tipping diagnostics.
type runDone struct {
	RootCard    int64           `json:"root_card"`
	Walks       int64           `json:"walks"`
	Tipped      int64           `json:"tipped"`
	CacheHits   int64           `json:"cache_hits"`
	CacheMisses int64           `json:"cache_misses"`
	Tips        json.RawMessage `json:"tips,omitempty"` // core.TipDiag
	// Strata is the number of semantic sub-strata the worker ran (1 when
	// the shard did not stratify).
	Strata int `json:"strata,omitempty"`
}

type exactReq struct {
	Query *query.Query `json:"query"`
	// Union, when non-nil, asks for the exact cross-branch union evaluation
	// instead (Query is then ignored). Added with ProtoVersion 2: one worker
	// evaluates all branches against its hybrid Source over the whole set,
	// sharing the DISTINCT dedup set and AVG numerator/denominator
	// across branches — semantics no merge of per-branch results can give.
	Union        *query.UnionQuery `json:"union,omitempty"`
	BudgetMillis int64             `json:"budget_millis,omitempty"`
}

type swapReq struct {
	// Path is the manifest (.kgm) path on the WORKER's filesystem.
	Path string `json:"path"`
	Mmap bool   `json:"mmap"`
}

type swapInfo struct {
	Epoch      int64  `json:"epoch"`
	Shards     int    `json:"shards"`
	ConfigHash uint32 `json:"config_hash"`
	DictLen    int    `json:"dict_len"`
}

type openPlanReq struct {
	Plan  uint64       `json:"plan"`
	Query *query.Query `json:"query"`
}

// WorkerStats is a worker's self-report, used by /healthz.
type WorkerStats struct {
	Addr         string `json:"addr"`
	Placement    string `json:"placement"`
	Stratum      int    `json:"stratum"`
	Shards       int    `json:"shards"`
	Epoch        int64  `json:"epoch"`
	Triples      int    `json:"triples"`
	ActiveRuns   int64  `json:"active_runs"`
	TotalRuns    int64  `json:"total_runs"`
	TotalWalks   int64  `json:"total_walks"`
	WireIn       int64  `json:"wire_in_bytes"`
	WireOut      int64  `json:"wire_out_bytes"`
	Swaps        int64  `json:"swaps"`
	UptimeMillis int64  `json:"uptime_millis"`
}

// conn wraps a net.Conn with frame I/O and byte accounting. Reads and
// writes are not internally locked; callers own the concurrency discipline
// (one reader, writes under the caller's mutex where needed).
type conn struct {
	c       net.Conn
	in, out atomic.Int64
	wmu     sync.Mutex // serializes writeFrame (run streams write from two goroutines)
	rbuf    []byte
	hdr     [5]byte
}

func newConn(c net.Conn) *conn { return &conn{c: c} }

func (c *conn) Close() error { return c.c.Close() }

// writeFrame sends one frame. Safe for concurrent use.
func (c *conn) writeFrame(typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d limit", len(payload), MaxFrame)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := c.c.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.c.Write(payload); err != nil {
			return err
		}
	}
	c.out.Add(int64(len(payload) + 5))
	return nil
}

func (c *conn) writeJSON(typ byte, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.writeFrame(typ, data)
}

func (c *conn) writeErr(err error) error {
	data, _ := json.Marshal(errPayload{Msg: err.Error()})
	return c.writeFrame(MsgErr, data)
}

// readFrame reads one frame. The returned payload aliases an internal
// buffer valid until the next readFrame. Single-reader only.
func (c *conn) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.c, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(c.hdr[:4])
	typ := c.hdr[4]
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("dist: incoming frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if n > 0 {
		if _, err := io.ReadFull(c.c, buf); err != nil {
			return 0, nil, err
		}
	}
	c.in.Add(int64(n) + 5)
	return typ, buf, nil
}

// expect reads one frame and fails unless it has the wanted type; MsgErr
// frames surface as errors.
func (c *conn) expect(want byte) ([]byte, error) {
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if typ == MsgErr {
		var ep errPayload
		if json.Unmarshal(payload, &ep) == nil && ep.Msg != "" {
			return nil, fmt.Errorf("dist: remote error: %s", ep.Msg)
		}
		return nil, fmt.Errorf("dist: remote error")
	}
	if typ != want {
		return nil, fmt.Errorf("dist: unexpected message type 0x%02x, want 0x%02x", typ, want)
	}
	return payload, nil
}

// Binary codecs. All little-endian, mirroring internal/rdf's fixed-width
// triple encoding (u32 IDs).

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }

type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated binary payload")
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

// maxWireEntries bounds decoded map sizes against hostile or corrupt
// frames: a count cannot promise more entries than the payload can hold.
func (r *rbuf) count(entryBytes int) int {
	n := int(r.u32())
	if r.err == nil && n*entryBytes > len(r.b) {
		r.fail()
		return 0
	}
	return n
}

// Accumulator codec: the per-snapshot payload. Layout:
//
//	u8 flags (1 distinct, 2 has-den)
//	i64 N | i64 Rejected | i64 Dedup
//	u32 |Sum|   then per group: u32 id | f64 sum | f64 sumsq
//	[den]       u32 |Den|  then per group: u32 id | f64
//	[distinct]  u32 |Vals| then per pair: u64 key | f64 contribution | i64 hits
func appendAcc(b []byte, a *wj.Acc) []byte {
	w := wbuf{b: b}
	var flags byte
	if a.Distinct {
		flags |= 1
	}
	if a.Den != nil {
		flags |= 2
	}
	w.u8(flags)
	w.i64(a.N)
	w.i64(a.Rejected)
	w.i64(a.Dedup)
	w.u32(uint32(len(a.Sum)))
	for id, s := range a.Sum {
		w.u32(uint32(id))
		w.f64(s)
		w.f64(a.SumSq[id])
	}
	if a.Den != nil {
		w.u32(uint32(len(a.Den)))
		for id, d := range a.Den {
			w.u32(uint32(id))
			w.f64(d)
		}
	}
	if a.Distinct {
		w.u32(uint32(len(a.Vals)))
		for key, v := range a.Vals {
			w.u64(key)
			w.f64(v.Contribution)
			w.i64(v.Hits)
		}
	}
	return w.b
}

func decodeAcc(r *rbuf) (*wj.Acc, error) {
	flags := r.u8()
	a := wj.NewAcc()
	a.Distinct = flags&1 != 0
	a.N = r.i64()
	a.Rejected = r.i64()
	a.Dedup = r.i64()
	for n := r.count(20); n > 0 && r.err == nil; n-- {
		id := rdf.ID(r.u32())
		a.Sum[id] = r.f64()
		a.SumSq[id] = r.f64()
	}
	if flags&2 != 0 {
		a.Den = make(map[rdf.ID]float64)
		for n := r.count(12); n > 0 && r.err == nil; n-- {
			id := rdf.ID(r.u32())
			a.Den[id] = r.f64()
		}
	}
	if a.Distinct {
		a.Vals = make(map[uint64]wj.DistinctVal)
		for n := r.count(24); n > 0 && r.err == nil; n-- {
			key := r.u64()
			v := wj.DistinctVal{Contribution: r.f64(), Hits: r.i64()}
			a.Vals[key] = v
		}
	}
	return a, r.err
}

// Group-map codec (MsgExactOK).
func appendGroups(b []byte, groups map[rdf.ID]float64) []byte {
	w := wbuf{b: b}
	w.u32(uint32(len(groups)))
	for id, v := range groups {
		w.u32(uint32(id))
		w.f64(v)
	}
	return w.b
}

func decodeGroups(r *rbuf) (map[rdf.ID]float64, error) {
	out := make(map[rdf.ID]float64)
	for n := r.count(12); n > 0 && r.err == nil; n-- {
		id := rdf.ID(r.u32())
		out[id] = r.f64()
	}
	return out, r.err
}

// Span and triple helpers.

// tripleBytes is the wire size of one encoded triple (3 × u32).
const tripleBytes = 12

// encodeJSON marshals a control payload for a caller that wants the raw
// bytes (writeJSON covers the common write-immediately path).
func encodeJSON(v any) ([]byte, error) { return json.Marshal(v) }

func appendSpan(w *wbuf, sp index.Span) {
	w.i64(int64(sp.Lo))
	w.i64(int64(sp.Hi))
}

func readSpan(r *rbuf) index.Span {
	lo := r.i64()
	hi := r.i64()
	return index.Span{Lo: int(lo), Hi: int(hi)}
}

func appendTriple(w *wbuf, t rdf.Triple) {
	w.u32(uint32(t.S))
	w.u32(uint32(t.P))
	w.u32(uint32(t.O))
}

func readTriple(r *rbuf) rdf.Triple {
	return rdf.Triple{S: rdf.ID(r.u32()), P: rdf.ID(r.u32()), O: rdf.ID(r.u32())}
}
