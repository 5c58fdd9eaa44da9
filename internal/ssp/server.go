package ssp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// Server serves a BlobStore over the wire protocol. One reader and one
// response-writer goroutine per connection; the store provides its own
// synchronization. Every frame is a pack: requests arrive in packs,
// dispatch concurrently, and their responses go back in packs, matched
// by ReqID.
type Server struct {
	store BlobStore
	views ViewStore // non-nil when store supports borrowed reads
	log   *log.Logger

	// Observability; all nil-safe, attached via Observe, which resolves
	// the per-request handles (ops, inflight) once.
	reg      *obs.Registry
	tracer   *obs.Tracer
	ops      []opObs
	inflight *obs.Gauge

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*connEntry // live: accepted and not yet cut
	closed    bool
	// draining is set under mu by Shutdown; response writers read
	// it after a flush to cut a connection the drain found busy.
	draining atomic.Bool
	wg       sync.WaitGroup
}

// connEntry tracks one connection's handler state for graceful drain:
// inflight counts requests read off the wire whose responses have not yet
// been written; zero means nothing is outstanding, so cutting the
// connection loses no reply.
type connEntry struct {
	inflight atomic.Int64
}

// maxConnConcurrency bounds concurrent dispatch per connection.
const maxConnConcurrency = 32

// NewServer creates a server over store. logger may be nil to disable
// logging.
func NewServer(store BlobStore, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	views, _ := store.(ViewStore)
	return &Server{
		store:     store,
		views:     views,
		log:       logger,
		ops:       observeOps(nil),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*connEntry),
	}
}

// Observe attaches a metrics registry and a tracer. Either may be nil
// (the corresponding instrumentation becomes a no-op). Must be called
// before Serve; the server reads these fields without locking.
//
// Metrics exposed: ssp.conns (gauge of live connections),
// ssp.op.<op> / ssp.op.<op>.ns (per-operation count and latency
// histogram), ssp.bytes_in / ssp.bytes_out (wire traffic). Incoming
// requests carrying a trace ID get an "ssp.<op>" span on tracer joined
// to the client's trace. Labels are operation names from the wire
// protocol — never request keys or values, which are untrusted and, in
// Sharoes, ciphertext; an op number outside the protocol is counted as
// ssp.op.unknown.
func (s *Server) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	s.reg = reg
	s.tracer = tracer
	s.ops = observeOps(reg)
	s.inflight = reg.Gauge("ssp.inflight")
}

// opObs is one wire operation's instrumentation: its span name, counter
// and latency histogram.
type opObs struct {
	span  string
	count *obs.Counter
	ns    *obs.Histogram
}

// observeOps resolves every operation's instrumentation on reg (nil
// gives names and nil handles), indexed by wire.Op. Slot 0, which no
// operation uses, is "unknown": an op number the protocol lacks comes off
// the wire, so no name is built from it.
func observeOps(reg *obs.Registry) []opObs {
	ops := make([]opObs, wire.OpMax+1)
	for op := range ops {
		name := "unknown"
		if op > 0 {
			name = wire.Op(op).String()
		}
		ops[op] = opObs{"ssp." + name, reg.Counter("ssp.op." + name), reg.Histogram("ssp.op." + name + ".ns")}
	}
	return ops
}

// Serve accepts connections on l until the listener fails or the server is
// closed. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining.Load()
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return fmt.Errorf("ssp: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		entry := &connEntry{}
		s.conns[conn] = entry
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn, entry)
	}
}

// Close stops accepting, cuts every live connection and waits for
// handlers to drain, however long a request stuck inside the store takes;
// Shutdown bounds the wait.
func (s *Server) Close() error {
	if _, ok := s.closeAll(); ok {
		s.wg.Wait()
	}
	return nil
}

// closeAll marks the server closed, closes its listeners and cuts every
// live connection, returning the entries it cut. ok is false, with
// nothing done, if the server was already closed.
func (s *Server) closeAll() (cut []*connEntry, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	return s.cutAll(nil), true
}

// cutAll cuts every live connection that pick accepts (nil accepts all)
// and returns the entries it cut.
func (s *Server) cutAll(pick func(*connEntry) bool) []*connEntry {
	s.mu.Lock()
	conns := make(map[net.Conn]*connEntry, len(s.conns))
	for c, e := range s.conns {
		conns[c] = e
	}
	s.mu.Unlock()
	var cut []*connEntry
	for c, e := range conns {
		if (pick == nil || pick(e)) && s.cut(c) {
			cut = append(cut, e)
		}
	}
	return cut
}

// cut is the one way a connection ends: it takes c out of s.conns and
// closes it. A connection leaves s.conns once, so of all the callers that
// race to cut it (a sever, a drain, Close, its own handler's exit) one
// closes it and reports true. The handler then finds its reads failing,
// lets its workers finish and exits.
func (s *Server) cut(c net.Conn) bool {
	s.mu.Lock()
	_, live := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if live {
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			s.log.Printf("ssp: close: %v", err)
		}
	}
	return live
}

// SeverConns cuts every live connection without stopping the listeners:
// clients see their links die mid-stream (in-flight calls fail) and may
// immediately redial. It is the fault injection hook behind the
// connection-drop and flap modes, in-process over netsim as over real
// sockets, and is also reachable operationally to kick all clients off a
// live SSP. Returns the number of connections cut, also counted under
// ssp.severs: a connection cut earlier and still tearing down is not
// live, so it is not cut or counted twice.
func (s *Server) SeverConns() int {
	n := len(s.cutAll(nil))
	s.reg.Counter("ssp.severs").Add(int64(n))
	return n
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, lets requests already being processed finish, then closes
// everything. A draining connection is cut by whichever side finds it
// idle: Shutdown cuts those with no request outstanding at once, and a
// busy connection's response writer cuts it after writing its last
// response. If the drain has not completed within grace, the remaining
// connections are cut and Shutdown returns without waiting further: a
// handler whose request is stuck inside the store cannot be stopped from
// here, and the error counts the connections that still had a request in
// the store. Safe to call concurrently with Close and with itself.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	// draining is set before each inflight load here, and a response
	// writer decrements inflight before it loads draining, so at least
	// one of the two sees a connection idle. A connection that turns busy
	// between the load and the cut drops a request not yet processed,
	// never one in flight.
	s.cutAll(func(e *connEntry) bool { return e.inflight.Load() == 0 })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeAll()
		return nil
	case <-time.After(grace):
	}
	cut, _ := s.closeAll()
	stuck := 0
	for _, e := range cut {
		if e.inflight.Load() > 0 {
			stuck++
		}
	}
	if stuck == 0 {
		return nil
	}
	return fmt.Errorf("ssp: shutdown: %d connection(s) still have a request in the store after %v", stuck, grace)
}

// connState is the per-connection transport state shared by the read
// loop, the dispatch workers, and the response writer.
type connState struct {
	out      chan *wire.Response
	bytesOut int64 // owned by the response writer until it exits
}

// maxPackBytes caps how large a pack of several messages grows, on both
// sides of the connection; a message estimated bigger than this travels
// in a pack of its own, so no frame approaches wire.MaxMessageSize.
const maxPackBytes = 1 << 20

func (s *Server) handle(conn net.Conn, entry *connEntry) {
	defer s.wg.Done()
	var workers sync.WaitGroup
	sem := make(chan struct{}, maxConnConcurrency)
	br := bufio.NewReaderSize(conn, 64<<10)
	st := &connState{out: make(chan *wire.Response, maxConnConcurrency)}
	writerDone := make(chan struct{})
	go s.respWriter(conn, entry, st, writerDone)
	var bytesIn int64
	defer func() {
		// Let in-flight workers enqueue their responses, then close the
		// response channel so the writer drains, flushes, and exits
		// before the conn goes down.
		workers.Wait()
		close(st.out)
		<-writerDone
		s.cut(conn)
		s.reg.Counter("ssp.bytes_in").Add(bytesIn)
		s.reg.Counter("ssp.bytes_out").Add(st.bytesOut)
	}()
	s.reg.Gauge("ssp.conns").Add(1)
	defer s.reg.Gauge("ssp.conns").Add(-1)
	var frame wire.Msg
	for {
		payload, n, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("ssp: read request: %v", err)
			}
			return
		}
		bytesIn += int64(n)
		if !s.readFrame(st, entry, &workers, sem, payload, &frame) {
			return
		}
	}
}

// readFrame decodes one frame, which must be a pack of requests, and
// routes each request to dispatch; frame is reused across calls. The
// decoded requests alias payload, which is theirs: a store keeps the
// values a write hands it, so the frame lives as long as the last value
// stored from it. Returns false, with nothing dispatched, when the frame
// is anything else or an element does not decode: the connection is then
// torn down.
func (s *Server) readFrame(st *connState, entry *connEntry, workers *sync.WaitGroup, sem chan struct{}, payload []byte, frame *wire.Msg) bool {
	err := wire.DecodeV2Into(payload, frame)
	if err == nil && frame.Kind != wire.KindPack {
		err = fmt.Errorf("%w: frame kind %d, want a pack", wire.ErrBadMessage, frame.Kind)
	}
	var subs []wire.Msg
	if err == nil {
		// Decode and validate every element before dispatching any: a
		// bad element drops the whole pack.
		subs = make([]wire.Msg, len(frame.Pack))
		for i, raw := range frame.Pack {
			err = wire.DecodeV2Into(raw, &subs[i])
			if err == nil && subs[i].Kind != wire.KindRequest {
				err = fmt.Errorf("%w: pack element kind %d", wire.ErrBadMessage, subs[i].Kind)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		s.log.Printf("ssp: read request: %v", err)
		return false
	}
	for i := range subs {
		s.process(st, entry, workers, sem, &subs[i].Req)
	}
	return true
}

// process dispatches one decoded request on its own goroutine, bounded by
// the semaphore.
func (s *Server) process(st *connState, entry *connEntry, workers *sync.WaitGroup, sem chan struct{}, req *wire.Request) {
	entry.inflight.Add(1)
	sem <- struct{}{}
	workers.Add(1)
	go func() {
		defer func() { workers.Done(); <-sem }()
		s.dispatch(st, req)
	}()
}

// dispatch executes one request and enqueues its response, echoing the
// request's ReqID so pipelined clients can match out-of-order replies.
func (s *Server) dispatch(st *connState, req *wire.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	m := &s.ops[0]
	if req.Op <= wire.OpMax {
		m = &s.ops[req.Op]
	}
	sp := s.tracer.StartRemote(obs.TraceID(req.TraceID), obs.SpanID(req.SpanID), m.span, obs.ClassNone)
	start := time.Now()
	resp := s.apply(req)
	resp.ReqID = req.ReqID
	m.ns.Observe(time.Since(start))
	m.count.Inc()
	sp.End()
	st.out <- resp
}

// respWriter is the per-connection response serializer: it drains the
// response channel, greedily coalescing whatever is already queued, and
// writes each batch with a single flush, packed into as few frames as
// maxPackBytes allows, so a burst of pipelined responses costs one
// syscall (and one netsim transmit event) instead of one per response.
// A request stops counting as in flight when its response is flushed, or
// dropped on a dead conn; a draining conn left with none is cut here.
func (s *Server) respWriter(conn net.Conn, entry *connEntry, st *connState, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var pk wire.Pack
	failed := false
	batch := make([]*wire.Response, 0, wire.MaxPackFrames)
	for resp := range st.out {
		batch = append(batch[:0], resp)
	drain:
		for len(batch) < wire.MaxPackFrames {
			select {
			case more, ok := <-st.out:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		// After a failed write the conn is dead, but workers may still
		// be enqueueing: keep draining so they never block.
		if !failed {
			if err := s.writeBatch(bw, st, &pk, batch); err != nil {
				if !errors.Is(err, net.ErrClosed) {
					s.log.Printf("ssp: send response: %v", err)
				}
				failed = true
			}
		}
		if entry.inflight.Add(-int64(len(batch))) == 0 && s.draining.Load() {
			s.cut(conn)
		}
	}
}

// respApproxSize over-estimates a response's encoded size for pack
// budgeting.
func respApproxSize(p *wire.Response) int {
	n := 32 + len(p.Err) + len(p.Val)
	for _, kv := range p.Items {
		n += 16 + len(kv.Key) + len(kv.Val)
	}
	return n
}

// writeBatch writes a batch of queued responses as pack frames and
// flushes once. A pack is written out before a response that would take
// it past maxPackBytes, so a bigger response travels in a pack of its own.
func (s *Server) writeBatch(bw *bufio.Writer, st *connState, pk *wire.Pack, batch []*wire.Response) error {
	emit := func() error {
		n, err := wire.WriteFrame(bw, pk.Payload())
		st.bytesOut += int64(n)
		pk.Reset()
		return err
	}
	pk.Reset()
	for _, resp := range batch {
		if pk.Len() > 0 && pk.Size()+respApproxSize(resp) > maxPackBytes {
			if err := emit(); err != nil {
				return err
			}
		}
		pk.AddResponse(resp)
	}
	if err := emit(); err != nil {
		return err
	}
	return bw.Flush()
}

// apply executes one request against the store. The SSP trusts nothing and
// checks nothing beyond well-formedness: access control is cryptographic
// and happens entirely at clients.
//
// Reads go through the store's ViewStore methods when available: the
// handler only serializes the value onto the wire and drops it, so the
// defensive copy regular Get/List/BatchGet make would be pure waste
// (the old double-copy: store→response, response→frame). Writes hand the
// store values that alias the request's frame, which nothing else writes
// into, so a store that keeps them copies nothing either.
func (s *Server) apply(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpPing:
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpGet:
		var val []byte
		var err error
		if s.views != nil {
			val, err = s.views.GetView(req.NS, req.Key)
		} else {
			val, err = s.store.Get(req.NS, req.Key)
		}
		if err == wire.ErrNotFound {
			return &wire.Response{Status: wire.StatusNotFound}
		}
		if err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK, Val: val}
	case wire.OpPut:
		if err := s.store.Put(req.NS, req.Key, req.Val); err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpDelete:
		if err := s.store.Delete(req.NS, req.Key); err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpList:
		var items []wire.KV
		var err error
		if s.views != nil {
			items, err = s.views.ListView(req.NS, req.Prefix)
		} else {
			items, err = s.store.List(req.NS, req.Prefix)
		}
		if err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK, Items: items}
	case wire.OpBatchGet:
		var items []wire.KV
		var err error
		if s.views != nil {
			items, err = s.views.BatchGetView(req.Items)
		} else {
			items, err = s.store.BatchGet(req.Items)
		}
		if err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK, Items: items}
	case wire.OpBatchPut:
		if err := s.store.BatchPut(req.Items); err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpStats:
		st, err := s.store.Stats()
		if err != nil {
			return errResponse(err)
		}
		return &wire.Response{Status: wire.StatusOK, Items: encodeStats(st)}
	default:
		return &wire.Response{Status: wire.StatusBadRequest, Err: wire.ErrUnknownOp.Error()}
	}
}

func errResponse(err error) *wire.Response {
	return &wire.Response{Status: wire.StatusError, Err: err.Error()}
}

func encodeStats(st Stats) []wire.KV {
	items := []wire.KV{
		{Key: "objects", Val: []byte(strconv.FormatInt(st.Objects, 10))},
		{Key: "bytes", Val: []byte(strconv.FormatInt(st.Bytes, 10))},
	}
	for ns, n := range st.PerNS {
		items = append(items, wire.KV{NS: ns, Key: "ns", Val: []byte(strconv.FormatInt(n, 10))})
	}
	return items
}

func decodeStats(items []wire.KV) (Stats, error) {
	st := Stats{PerNS: make(map[wire.NS]int64)}
	for _, it := range items {
		n, err := strconv.ParseInt(string(it.Val), 10, 64)
		if err != nil {
			// Report the key and length only: stats values are supposed to
			// be small decimal strings, but a hostile peer controls them.
			return st, fmt.Errorf("ssp: bad stats value for %q (%d bytes): %w", it.Key, len(it.Val), err)
		}
		switch it.Key {
		case "objects":
			st.Objects = n
		case "bytes":
			st.Bytes = n
		case "ns":
			st.PerNS[it.NS] = n
		}
	}
	return st, nil
}
