package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
)

// viewRPCTimeout bounds one View round trip so a wedged peer turns into a
// sticky view error instead of a hung walk.
const viewRPCTimeout = 30 * time.Second

// RemoteShard is a shard served by a kgworker elsewhere, implementing
// shard.Remote over one multiplexed connection: every plan-scoped view it
// opens shares the connection, with RPCs serialized request-response.
//
// Failure semantics follow the View contract (internal/shard): View
// methods cannot return errors, so any wire failure is recorded as a
// sticky error on the affected view — which then degrades to empty
// resolutions — and the driver discards the run after checking
// walk.Walker.Err. A failed connection is not transparently redialed for
// existing views (their plan registrations live on the dead connection);
// a later Open starts fresh.
type RemoteShard struct {
	addr string

	mu       sync.Mutex
	c        *conn
	nextPlan uint64
}

// NewRemoteShard returns a lazily-dialed remote shard client for a worker
// address. It implements shard.Remote.
func NewRemoteShard(addr string) *RemoteShard {
	return &RemoteShard{addr: addr}
}

// ensureConn dials and handshakes if no live connection exists. Callers
// hold r.mu.
func (r *RemoteShard) ensureConn() (*conn, error) {
	if r.c != nil {
		return r.c, nil
	}
	nc, err := net.DialTimeout("tcp", r.addr, viewRPCTimeout)
	if err != nil {
		return nil, err
	}
	c := newConn(nc)
	if err := c.writeJSON(MsgHello, helloReq{Proto: ProtoVersion}); err != nil {
		c.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(viewRPCTimeout))
	if _, err := c.expect(MsgHelloOK); err != nil {
		c.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Time{})
	r.c = c
	return c, nil
}

// dropConn discards a connection after a wire failure. Callers hold r.mu.
func (r *RemoteShard) dropConn() {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// rpc performs one serialized request-response round trip.
func (r *RemoteShard) rpc(reqType byte, payload []byte, respType byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, err := r.ensureConn()
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(reqType, payload); err != nil {
		r.dropConn()
		return nil, err
	}
	c.c.SetReadDeadline(time.Now().Add(viewRPCTimeout))
	resp, err := c.expect(respType)
	c.c.SetReadDeadline(time.Time{})
	if err != nil {
		r.dropConn()
		return nil, err
	}
	return resp, nil
}

// Open registers pl with the remote worker and returns its plan-scoped
// View. The worker replies with every static step's pre-resolved span, so
// static resolutions never cross the wire again.
func (r *RemoteShard) Open(pl *query.Plan) (shard.View, error) {
	r.mu.Lock()
	r.nextPlan++
	id := r.nextPlan
	r.mu.Unlock()

	payload, err := encodeJSON(openPlanReq{Plan: id, Query: pl.Query})
	if err != nil {
		return nil, err
	}
	resp, err := r.rpc(MsgOpenPlan, payload, MsgOpenPlanOK)
	if err != nil {
		return nil, fmt.Errorf("dist: opening plan on %s: %w", r.addr, err)
	}
	rb := rbuf{b: resp}
	n := int(rb.u32())
	if rb.err != nil || n != len(pl.Steps) {
		return nil, fmt.Errorf("dist: worker %s acknowledged %d steps, plan has %d", r.addr, n, len(pl.Steps))
	}
	statics := make([]query.StaticSpan, n)
	for i := 0; i < n; i++ {
		flags := rb.u8()
		sp := readSpan(&rb)
		if flags&2 != 0 {
			statics[i] = query.StaticSpan{Span: sp, OK: flags&1 != 0}
		}
	}
	if rb.err != nil {
		return nil, rb.err
	}
	return &remoteView{rs: r, id: id, pl: pl, statics: statics}, nil
}

// Close closes the connection. Views opened through this remote become
// unusable (sticky errors on next use).
func (r *RemoteShard) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropConn()
	return nil
}

// remoteView is the plan-scoped View of one RemoteShard. It serves static
// steps from the spans shipped at Open time and everything else over the
// wire; wire failures set the sticky error and degrade to empty results.
type remoteView struct {
	rs      *RemoteShard
	id      uint64
	pl      *query.Plan
	statics []query.StaticSpan

	mu  sync.Mutex
	err error
}

// Err returns the view's sticky error — the shard.View error convention
// drivers check through walk.Walker.Err after a run.
func (v *remoteView) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

func (v *remoteView) fail(err error) {
	v.mu.Lock()
	if v.err == nil {
		v.err = fmt.Errorf("dist: shard at %s: %w", v.rs.addr, err)
	}
	v.mu.Unlock()
}

func (v *remoteView) Resolve(i int, b query.Bindings) (index.Span, bool) {
	if v.pl.Steps[i].Static {
		ss := v.statics[i]
		return ss.Span, ss.OK
	}
	wb := wbuf{}
	wb.u64(v.id)
	wb.u32(uint32(i))
	wb.u32(uint32(len(b)))
	for _, id := range b {
		wb.u32(uint32(id))
	}
	resp, err := v.rs.rpc(MsgResolve, wb.b, MsgResolveOK)
	if err != nil {
		v.fail(err)
		return index.Span{}, false
	}
	rb := rbuf{b: resp}
	ok := rb.u8() != 0
	sp := readSpan(&rb)
	if rb.err != nil {
		v.fail(rb.err)
		return index.Span{}, false
	}
	return sp, ok
}

func (v *remoteView) At(i int, sp index.Span, n int) rdf.Triple {
	wb := wbuf{}
	wb.u64(v.id)
	wb.u32(uint32(i))
	appendSpan(&wb, sp)
	wb.u32(uint32(n))
	resp, err := v.rs.rpc(MsgAt, wb.b, MsgAtOK)
	if err != nil {
		v.fail(err)
		return rdf.Triple{}
	}
	rb := rbuf{b: resp}
	t := readTriple(&rb)
	if rb.err != nil {
		v.fail(rb.err)
		return rdf.Triple{}
	}
	return t
}

func (v *remoteView) Read(i int, sp index.Span, off, max int, buf []rdf.Triple) []rdf.Triple {
	wb := wbuf{}
	wb.u64(v.id)
	wb.u32(uint32(i))
	appendSpan(&wb, sp)
	wb.u32(uint32(off))
	wb.u32(uint32(max))
	resp, err := v.rs.rpc(MsgRead, wb.b, MsgReadOK)
	if err != nil {
		v.fail(err)
		return buf
	}
	rb := rbuf{b: resp}
	n := rb.count(tripleBytes)
	for j := 0; j < n; j++ {
		buf = append(buf, readTriple(&rb))
	}
	if rb.err != nil {
		v.fail(rb.err)
	}
	return buf
}

func (v *remoteView) Contains(t rdf.Triple) bool {
	wb := wbuf{}
	appendTriple(&wb, t)
	resp, err := v.rs.rpc(MsgContains, wb.b, MsgContainsOK)
	if err != nil {
		v.fail(err)
		return false
	}
	if len(resp) < 1 {
		v.fail(fmt.Errorf("dist: empty Contains response"))
		return false
	}
	return resp[0] != 0
}
