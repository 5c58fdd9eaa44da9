package ssp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/wire"
)

// Dialer opens a connection to an SSP. netsim.Listener.Dial and closures
// over net.Dial both satisfy it.
type Dialer func() (net.Conn, error)

// ErrShutdown is returned for calls issued against (or in flight on) a
// closed client.
var ErrShutdown = errors.New("ssp: client is shut down")

// ErrDeadline is returned (wrapped) for calls that exceeded the client's
// per-call timeout. The connection itself is left alone: a late reply is
// dropped silently and the client stays usable. Layers that treat a
// deadline as evidence of a hung server (the reconnect wrapper does)
// match it with errors.Is and redial.
var ErrDeadline = errors.New("ssp: call deadline exceeded")

// Call is one in-flight RPC issued through Client.Go. When the server
// replies (or the transport fails), the call is delivered on Done.
type Call struct {
	Req  *wire.Request  // the request as sent (ReqID stamped by the client)
	Resp *wire.Response // the reply; nil on transport error
	Err  error          // transport error, if any (not remote status errors)
	Done chan *Call     // receives the completed call; must be buffered

	bytesOut atomic.Int64
	bytesIn  int64

	// completed makes delivery exactly-once: a deadline expiry, a late
	// reply, and a terminate can all race to finish the same call, and
	// only the CAS winner writes Resp/Err and sends Done.
	completed atomic.Bool
	// timer is the pending deadline; stopped on delivery. Written under
	// the client mutex before the call is visible in pending.
	timer *time.Timer
	// expired marks a call failed by its deadline but left in pending as
	// a tombstone: its frame is (or may be) on the wire, so its ReqID must
	// stay pending to absorb the eventual reply instead of letting the
	// reader treat that reply as unsolicited. Guarded by the client mutex.
	expired bool
	// onDone, when set, takes the completed call instead of Done: it runs
	// on whichever goroutine completes the call, so it must not block.
	onDone func(*Call)
	// sent is when the call was registered; a reply measures the round
	// trip from it (Client.minRTT).
	sent time.Time
}

// complete hands the completed call to its consumer.
func (call *Call) complete() {
	if call.onDone != nil {
		call.onDone(call)
		return
	}
	call.Done <- call
}

// Response returns the reply, folding transport errors and non-OK remote
// statuses into one error — the usual way to consume a completed Call.
func (call *Call) Response() (*wire.Response, error) {
	if call.Err != nil {
		return nil, call.Err
	}
	if err := call.Resp.AsError(); err != nil {
		return nil, err
	}
	return call.Resp, nil
}

// Client is a remote BlobStore speaking the wire protocol over a single
// connection. Requests are pipelined, net/rpc style: a writer goroutine
// drains a send queue, a reader goroutine matches replies to pending calls
// by wire ReqID, and any number of goroutines may issue calls
// concurrently — each waits only for its own reply, so independent calls
// overlap their round trips instead of queueing behind one another.
//
// All time a call spends waiting on the wire is charged to the NETWORK
// component of the attached recorder, which is how Figure 13's breakdown
// is measured.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	rec  *stats.Recorder

	sendq chan *Call

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*Call // by ReqID
	closing bool             // Close started; new calls fail fast
	stopErr error            // terminal transport error, sticky
	// live holds the ReqID of every registered call whose delivery has
	// not finished — its consumer has not yet run — and done is signalled
	// when one leaves it while a Barrier waits (barriers counts them).
	live     map[uint64]struct{}
	done     *sync.Cond
	barriers int

	// minRTT is the shortest round trip a reply has measured on this
	// connection, in nanoseconds (0 until the first reply): the link's own
	// delay, which decides whether SendBatch pipelines.
	minRTT atomic.Int64

	readerDone chan struct{}
	writerDone chan struct{}

	// tracer and inflight are read on call paths without c.mu.
	tracer   atomic.Pointer[obs.Tracer]
	inflight atomic.Pointer[obs.Gauge]
	expiries atomic.Pointer[obs.Counter]

	// timeout is the per-call deadline in nanoseconds (0 = none).
	timeout atomic.Int64
}

var (
	_ BlobStore = (*Client)(nil)
	_ Sender    = (*Client)(nil)
	_ Flusher   = (*Client)(nil)
)

// sendQueueDepth bounds the send queue; callers block (backpressure) once
// this many requests await the writer goroutine.
const sendQueueDepth = 64

// Dial connects to an SSP. rec may be nil. An optional tracer may be
// passed so even the first RPCs are traced (equivalent to calling Observe
// before any call); the old Dial-then-Observe path keeps working.
func Dial(dial Dialer, rec *stats.Recorder, tracer ...*obs.Tracer) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("ssp: dial: %w", err)
	}
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriterSize(conn, 32*1024),
		br:         bufio.NewReaderSize(conn, 32*1024),
		rec:        rec,
		sendq:      make(chan *Call, sendQueueDepth),
		pending:    make(map[uint64]*Call),
		live:       make(map[uint64]struct{}),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	c.done = sync.NewCond(&c.mu)
	if len(tracer) > 0 {
		c.tracer.Store(tracer[0])
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// Observe attaches a tracer (nil disables tracing). Each round trip then
// emits an "rpc.<op>" span classed NETWORK, and the request frame carries
// the current trace and span IDs so SSP-side spans join the same trace
// (see wire.Request.TraceID).
func (c *Client) Observe(tracer *obs.Tracer) { c.tracer.Store(tracer) }

// ObserveMetrics attaches a metrics registry: the client then maintains an
// "ssp.client.inflight" gauge counting calls issued but not yet completed.
func (c *Client) ObserveMetrics(reg *obs.Registry) {
	if reg == nil {
		c.inflight.Store(nil)
		c.expiries.Store(nil)
		return
	}
	c.inflight.Store(reg.Gauge("ssp.client.inflight"))
	c.expiries.Store(reg.Counter("ssp.client.deadline_expired"))
}

// SetCallTimeout arms a per-call deadline: any call not answered within d
// completes with an error wrapping ErrDeadline. Zero disables deadlines.
// The writer and reader goroutines are unaffected — a hung server fails
// the pending call, not the client — and a reply arriving after expiry is
// discarded silently, leaving the connection usable.
func (c *Client) SetCallTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Close closes the connection. In-flight and queued calls complete with
// ErrShutdown (or the reply, if it races ahead of the close).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return nil
	}
	c.closing = true
	c.mu.Unlock()
	err := c.conn.Close() // unblocks reader and writer
	<-c.readerDone
	<-c.writerDone
	return err
}

// Go issues an asynchronous call. The request must not be mutated until
// the call completes; done must be buffered (a nil done allocates one).
// The completed call is delivered on its Done channel.
func (c *Client) Go(req *wire.Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	} else if cap(done) == 0 {
		panic("ssp: Go called with unbuffered done channel")
	}
	call := &Call{Req: req, Done: done}
	c.send(call)
	return call
}

// send registers call and queues it for the writer goroutine.
func (c *Client) send(call *Call) {
	req := call.Req
	c.mu.Lock()
	if c.closing || c.stopErr != nil {
		err := c.stopErr
		c.mu.Unlock()
		if err == nil {
			err = ErrShutdown
		}
		call.completed.Store(true)
		call.Err = err
		call.complete()
		return
	}
	c.seq++
	req.ReqID = c.seq
	c.pending[req.ReqID] = call
	c.live[req.ReqID] = struct{}{}
	call.sent = time.Now()
	// Arm the deadline while the registration lock is held, so every
	// goroutine that finds the call in pending also sees its timer.
	if d := c.timeout.Load(); d > 0 {
		call.timer = time.AfterFunc(time.Duration(d), func() { c.expire(call) })
	}
	c.mu.Unlock()

	if g := c.inflight.Load(); g != nil {
		g.Add(1)
	}
	select {
	case c.sendq <- call:
	case <-c.writerDone:
		// The writer exited while we raced it; any call registered before
		// termination was already failed, so this is usually a no-op.
		c.failPending(req.ReqID)
	}
}

// pipelineRTT is the shortest link round trip over which SendBatch
// pipelines. Below it — loopback, a LAN — the wait for a reply is no
// longer than the client's own work per operation, so a batch left in
// flight buys little, and the next read, queued behind it at both peers,
// pays for it (EXPERIMENTS.md E1). Over a wide-area link the wait is most
// of an operation's time.
const pipelineRTT = time.Millisecond

// SendBatch implements Sender: it queues a BatchPut and returns at once,
// once the connection has measured a round trip of at least pipelineRTT;
// until then, and on a faster link, it is BatchPut, and returns with the
// reply. The returned channel yields the reply's error, or the
// transport's, once. The bytes both ways are charged to the recorder and
// the call traced as an "rpc.batchput" span exactly as BatchPut charges
// them, before the call counts as finished for Barrier; the span is
// detached from the tracer's stack, because it ends on the reader
// goroutine, after the operation that sent it may have ended. The wait
// for a pipelined reply is not charged here: the caller blocks for it
// later, or not at all, and charges what it blocks.
func (c *Client) SendBatch(items []wire.KV) <-chan error {
	errc := make(chan error, 1)
	if c.minRTT.Load() < int64(pipelineRTT) {
		errc <- c.BatchPut(items)
		return errc
	}
	req := &wire.Request{Op: wire.OpBatchPut, Items: items}
	sp := c.startSpan(req, true)
	c.send(&Call{Req: req, onDone: func(call *Call) {
		c.endRPC(call, sp)
		if call.Err != nil {
			errc <- fmt.Errorf("ssp: %s: %w", req.Op, call.Err)
			return
		}
		errc <- call.Resp.AsError()
	}})
	return errc
}

// Barrier implements Flusher: it returns once every call issued before
// it has been delivered — its reply or its failure handed over, and a
// SendBatch call charged — so that whatever the connection carried
// before it, pipelined batches included, has been applied or refused at
// the SSP. It returns the connection's terminal error, if it has one.
func (c *Client) Barrier() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.barriers++
	defer func() { c.barriers-- }()
	for last := c.seq; c.unfinished(last); {
		c.done.Wait()
	}
	return c.stopErr
}

// unfinished reports whether a call with ReqID up to last is still live.
// Called under c.mu.
func (c *Client) unfinished(last uint64) bool {
	for id := range c.live {
		if id <= last {
			return true
		}
	}
	return false
}

// writeLoop drains the send queue onto the wire. Encoding and the shaped
// write happen here, off the callers' goroutines, so a caller's latency is
// its own round trip, not the serialization of everyone else's. Whatever
// has queued up while the previous write was in flight is taken as one
// batch and flushed once, packed into as few frames as maxPackBytes
// allows, so a pipelined burst (or a write-behind lane flush) costs one
// syscall and one netsim transmit event instead of one per request.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	var pk wire.Pack
	batch := make([]*Call, 0, wire.MaxPackFrames)
	for {
		select {
		case call := <-c.sendq:
			batch = append(batch[:0], call)
		greedy:
			for len(batch) < wire.MaxPackFrames {
				select {
				case more := <-c.sendq:
					batch = append(batch, more)
				default:
					break greedy
				}
			}
			c.writeBatch(&pk, batch)
		case <-c.readerDone:
			// Reader hit a terminal error (or Close); drain stragglers
			// that raced past the closing check until the queue is empty
			// and no more can arrive.
			c.drainQueue()
			return
		}
	}
}

// reqApproxSize over-estimates a request's encoded size for pack
// budgeting.
func reqApproxSize(q *wire.Request) int {
	n := 48 + len(q.Key) + len(q.Val) + len(q.Prefix)
	for _, kv := range q.Items {
		n += 16 + len(kv.Key) + len(kv.Val)
	}
	return n
}

// writeBatch serializes the batch and flushes once. A write failure is
// terminal for the connection: it fails everything pending so blocked
// senders unstick.
func (c *Client) writeBatch(pk *wire.Pack, batch []*Call) {
	// Skip calls a concurrent terminate already failed: their frames
	// would never be answered. A call whose deadline expired before its
	// frame was written is dropped the same way — nothing went out, so no
	// reply will come and its tombstone can go now.
	live := batch[:0]
	c.mu.Lock()
	for _, call := range batch {
		if cur, ok := c.pending[call.Req.ReqID]; !ok {
			continue
		} else if cur.expired {
			delete(c.pending, call.Req.ReqID)
			continue
		}
		live = append(live, call)
	}
	c.mu.Unlock()
	if len(live) == 0 {
		return
	}
	err := c.writePacks(pk, live)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.terminate(fmt.Errorf("ssp: write: %w", err))
	}
}

// writePacks writes the batch as pack frames. A pack is written out
// before a request that would take it past maxPackBytes, so a request
// bigger than that travels in a pack of its own and no frame approaches
// wire.MaxMessageSize.
func (c *Client) writePacks(pk *wire.Pack, live []*Call) error {
	pk.Reset()
	for _, call := range live {
		if pk.Len() > 0 && pk.Size()+reqApproxSize(call.Req) > maxPackBytes {
			if _, err := wire.WriteFrame(c.bw, pk.Payload()); err != nil {
				return err
			}
			pk.Reset()
		}
		// Charged before any write: a frame larger than c.bw goes
		// straight to the socket, and the reply can complete the call
		// before WriteFrame returns here.
		call.bytesOut.Store(int64(pk.AddRequest(call.Req)) + 4)
	}
	_, err := wire.WriteFrame(c.bw, pk.Payload())
	return err
}

// drainQueue fails queued sends after shutdown/termination.
func (c *Client) drainQueue() {
	for {
		select {
		case call := <-c.sendq:
			c.failPending(call.Req.ReqID)
		default:
			return
		}
	}
}

// readLoop matches reply frames to pending calls by the ReqID each reply
// echoes.
//
// Frames land in pooled buffers (wire.ReadFrameBuf) and are decoded
// borrowed; responses are detached — Val/item bytes copied out — just
// before delivery, so only bytes the caller keeps are ever copied and
// the frame buffer itself is recycled, never reallocated per frame.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var frame wire.Msg
	for {
		buf, _, err := wire.ReadFrameBuf(c.br)
		if err != nil {
			c.terminate(fmt.Errorf("ssp: read: %w", err))
			return
		}
		err = c.readFrame(buf.Bytes(), &frame)
		buf.Release()
		if err != nil {
			c.terminate(fmt.Errorf("ssp: read: %w", err))
			return
		}
	}
}

// readFrame processes one frame, which must be a pack of responses;
// frame is reused across calls. The payload is borrowed from the pooled
// buffer the caller releases; everything delivered is detached first.
// Each response is charged its message length plus its 4-byte element
// length. Any error is terminal for the connection.
func (c *Client) readFrame(payload []byte, frame *wire.Msg) error {
	if err := wire.DecodeV2Into(payload, frame); err != nil {
		return err
	}
	if frame.Kind != wire.KindPack {
		return fmt.Errorf("%w: frame kind %d, want a pack", wire.ErrBadMessage, frame.Kind)
	}
	for _, raw := range frame.Pack {
		// A fresh Msg per element: the delivered response keeps the
		// Items slice the decode builds.
		var sub wire.Msg
		if err := wire.DecodeV2Into(raw, &sub); err != nil {
			return err
		}
		if sub.Kind != wire.KindResponse {
			return fmt.Errorf("%w: pack element kind %d", wire.ErrBadMessage, sub.Kind)
		}
		if err := c.handleResp(&sub.Resp, int64(len(raw)+4)); err != nil {
			return err
		}
	}
	return nil
}

// handleResp matches one borrowed response to its pending call and
// delivers an owned (detached) copy. A reply whose ReqID is not pending
// is unsolicited, and the error it returns is terminal.
func (c *Client) handleResp(resp *wire.Response, bytesIn int64) error {
	call, expired := c.take(resp.ReqID)
	if call == nil {
		return fmt.Errorf("%w: unsolicited reply (req %d)", wire.ErrBadMessage, resp.ReqID)
	}
	if expired {
		// The reply to a deadline-expired call finally arrived. The
		// caller was already failed with ErrDeadline; discard the
		// payload and keep reading — the connection itself is fine.
		return nil
	}
	owned := *resp
	owned.Detach()
	c.deliver(call, &owned, bytesIn, nil)
	return nil
}

// take removes and returns the pending call for id, reporting whether it
// was a deadline-expired tombstone.
func (c *Client) take(id uint64) (*Call, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	call, ok := c.pending[id]
	if !ok {
		return nil, false
	}
	delete(c.pending, id)
	return call, call.expired
}

// failPending completes the pending call id with the sticky stop error.
func (c *Client) failPending(id uint64) {
	call, _ := c.take(id)
	if call == nil {
		return
	}
	c.mu.Lock()
	err := c.stopErr
	closing := c.closing
	c.mu.Unlock()
	if closing || err == nil {
		err = ErrShutdown
	}
	c.deliver(call, nil, 0, err)
}

// expire fails one call with ErrDeadline when its timer fires. The call
// stays in pending as a tombstone (see Call.expired): its frame may be on
// the wire, so the slot must survive to swallow the late reply.
func (c *Client) expire(call *Call) {
	c.mu.Lock()
	cur, ok := c.pending[call.Req.ReqID]
	if !ok || cur != call {
		// Already answered, failed, or superseded; nothing to do.
		c.mu.Unlock()
		return
	}
	call.expired = true
	c.mu.Unlock()
	if ctr := c.expiries.Load(); ctr != nil {
		ctr.Inc()
	}
	c.deliver(call, nil, 0, ErrDeadline)
}

// terminate marks the transport broken and fails every pending call.
func (c *Client) terminate(err error) {
	c.mu.Lock()
	if c.stopErr == nil {
		c.stopErr = err
	}
	if c.closing {
		// Close() is tearing the client down; report shutdown, not the
		// read/write error its conn.Close provoked.
		c.stopErr = ErrShutdown
	}
	err = c.stopErr
	calls := make([]*Call, 0, len(c.pending))
	for id, call := range c.pending {
		delete(c.pending, id)
		calls = append(calls, call)
	}
	c.mu.Unlock()
	for _, call := range calls {
		// Expired tombstones were already delivered; the CAS in deliver
		// makes this a no-op for them.
		c.deliver(call, nil, 0, err)
	}
}

// deliver completes a call exactly once: the first of {reply, deadline,
// terminate} to arrive wins, writes the outcome, and signals Done.
func (c *Client) deliver(call *Call, resp *wire.Response, bytesIn int64, err error) {
	if !call.completed.CompareAndSwap(false, true) {
		return
	}
	if call.timer != nil {
		call.timer.Stop()
	}
	call.Resp, call.bytesIn, call.Err = resp, bytesIn, err
	if g := c.inflight.Load(); g != nil {
		g.Add(-1)
	}
	if resp != nil {
		c.noteRTT(time.Since(call.sent))
	}
	call.complete()
	c.mu.Lock()
	delete(c.live, call.Req.ReqID)
	if c.barriers > 0 {
		c.done.Broadcast()
	}
	c.mu.Unlock()
}

// noteRTT keeps rtt if it is the connection's shortest round trip yet.
func (c *Client) noteRTT(rtt time.Duration) {
	for {
		cur := c.minRTT.Load()
		if cur != 0 && cur <= int64(rtt) || c.minRTT.CompareAndSwap(cur, int64(rtt)) {
			return
		}
	}
}

// call performs one synchronous round trip, charging the wait to NETWORK.
// With a tracer attached the round trip is also recorded as an
// "rpc.<op>" span, and the frame carries the trace context so the SSP's
// handler span joins the same trace.
func (c *Client) call(req *wire.Request) (*wire.Response, error) {
	sp := c.startSpan(req, false)
	stop := c.rec.Time(stats.Network)
	call := c.Go(req, make(chan *Call, 1))
	<-call.Done
	stop()
	c.endRPC(call, sp)
	if call.Err != nil {
		return nil, fmt.Errorf("ssp: %s: %w", req.Op, call.Err)
	}
	return call.Resp, nil
}

// startSpan starts one round trip's "rpc.<op>" span and stamps its trace
// context on the request. A detached span joins the open operation
// without entering the tracer's stack, for a call that may complete after
// that operation has ended.
func (c *Client) startSpan(req *wire.Request, detached bool) *obs.Span {
	tracer := c.tracer.Load()
	var sp *obs.Span
	if detached {
		tid, sid := tracer.Current()
		sp = tracer.StartRemote(tid, sid, "rpc."+req.Op.String(), obs.ClassNetwork)
	} else {
		sp = tracer.Start("rpc."+req.Op.String(), obs.ClassNetwork)
	}
	if sp != nil {
		req.TraceID, req.SpanID = uint64(sp.Trace), uint64(sp.ID)
	}
	return sp
}

// endRPC accounts for call once it has completed: the bytes both ways go
// to the recorder, and the span from startSpan ends.
func (c *Client) endRPC(call *Call, sp *obs.Span) {
	out, in := call.bytesOut.Load(), call.bytesIn
	c.rec.AddBytes(int(out), int(in))
	if sp != nil { // skip the strconv work when untraced
		sp.Annotate("bytes_out", strconv.FormatInt(out, 10))
		sp.Annotate("bytes_in", strconv.FormatInt(in, 10))
		sp.End()
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.call(&wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	return resp.AsError()
}

// Get implements BlobStore.
func (c *Client) Get(ns wire.NS, key string) ([]byte, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpGet, NS: ns, Key: key})
	if err != nil {
		return nil, err
	}
	if err := resp.AsError(); err != nil {
		return nil, err
	}
	return resp.Val, nil
}

// Put implements BlobStore.
func (c *Client) Put(ns wire.NS, key string, val []byte) error {
	resp, err := c.call(&wire.Request{Op: wire.OpPut, NS: ns, Key: key, Val: val})
	if err != nil {
		return err
	}
	return resp.AsError()
}

// Delete implements BlobStore.
func (c *Client) Delete(ns wire.NS, key string) error {
	resp, err := c.call(&wire.Request{Op: wire.OpDelete, NS: ns, Key: key})
	if err != nil {
		return err
	}
	return resp.AsError()
}

// List implements BlobStore.
func (c *Client) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpList, NS: ns, Prefix: prefix})
	if err != nil {
		return nil, err
	}
	if err := resp.AsError(); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// BatchGet implements BlobStore.
func (c *Client) BatchGet(items []wire.KV) ([]wire.KV, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpBatchGet, Items: items})
	if err != nil {
		return nil, err
	}
	if err := resp.AsError(); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// BatchPut implements BlobStore.
func (c *Client) BatchPut(items []wire.KV) error {
	resp, err := c.call(&wire.Request{Op: wire.OpBatchPut, Items: items})
	if err != nil {
		return err
	}
	return resp.AsError()
}

// Stats implements BlobStore.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return Stats{}, err
	}
	if err := resp.AsError(); err != nil {
		return Stats{}, err
	}
	return decodeStats(resp.Items)
}
