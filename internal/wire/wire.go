// Package wire defines the binary protocol spoken between Sharoes clients
// and the SSP data-serving tool.
//
// The SSP performs no computation on the data it stores (paper §IV): it is
// a big hashtable of opaque encrypted blobs, so the protocol is a small
// key-value vocabulary — get, put, delete, list, and batched variants —
// over namespaced string keys. Messages are length-prefixed with compact
// varint-encoded fields; wire size matters because the benchmarks are
// dominated by a bandwidth-shaped WAN link.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op identifies a request operation.
type Op uint8

// Protocol operations.
const (
	OpPing Op = iota + 1
	OpGet
	OpPut
	OpDelete
	OpList     // keys (and values) under a prefix
	OpBatchGet // many gets in one round trip
	OpBatchPut // many puts (and deletes) in one round trip
	OpStats    // storage statistics (object count, byte total)

	// OpMax is the highest-numbered operation in the protocol.
	OpMax = OpStats
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpBatchGet:
		return "batchget"
	case OpBatchPut:
		return "batchput"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// NS is a key namespace at the SSP.
type NS uint8

// Namespaces. The SSP indexes encrypted metadata objects and data blocks by
// inode number plus user/CAP identifier (paper §IV); the remaining
// namespaces hold superblocks, group key blocks and split-point pointers.
const (
	NSMeta NS = iota + 1
	NSData
	NSSuper
	NSGroupKey
	NSSplit
	NSSys
)

// String implements fmt.Stringer.
func (n NS) String() string {
	switch n {
	case NSMeta:
		return "meta"
	case NSData:
		return "data"
	case NSSuper:
		return "super"
	case NSGroupKey:
		return "groupkey"
	case NSSplit:
		return "split"
	case NSSys:
		return "sys"
	default:
		return fmt.Sprintf("ns(%d)", uint8(n))
	}
}

// KV is a namespaced key-value pair. In batch puts a nil Val with Delete
// set removes the key.
type KV struct {
	NS     NS
	Key    string
	Val    []byte
	Delete bool
}

// Request is a client request.
type Request struct {
	Op     Op
	NS     NS
	Key    string
	Val    []byte
	Prefix string // OpList
	Items  []KV   // OpBatchGet (keys only) / OpBatchPut

	// TraceID and SpanID propagate the client's observability trace so
	// SSP-side spans can join it (internal/obs). They are fixed header
	// fields of every request message (v2.go), zero when untraced.
	TraceID uint64
	SpanID  uint64

	// ReqID multiplexes concurrent requests over one connection: the
	// client tags each request with a nonzero ReqID and the server echoes
	// it in the matching Response, so replies can complete out of order.
	// It is the first header field of every request and response message.
	ReqID uint64
}

// Status is a response status code.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusBadRequest
	StatusError
)

// Response is the SSP's reply.
type Response struct {
	Status Status
	Err    string
	Val    []byte
	Items  []KV // list / batch-get results; absent batch-get keys are omitted

	// ReqID echoes the request's ReqID so a pipelined client can match
	// out-of-order replies (see Request.ReqID).
	ReqID uint64
}

// Protocol errors.
var (
	ErrNotFound    = errors.New("wire: key not found")
	ErrTooLarge    = errors.New("wire: message exceeds size limit")
	ErrBadMessage  = errors.New("wire: malformed message")
	ErrRemote      = errors.New("wire: remote error")
	ErrUnknownOp   = errors.New("wire: unknown operation")
	errShortBuffer = errors.New("wire: truncated field")
)

// MaxMessageSize bounds a single framed message (64 MiB), protecting both
// sides from hostile length prefixes.
const MaxMessageSize = 64 << 20

// --- low-level encoding ----------------------------------------------------

// The codec and the batched frame packers build messages into reusable
// byte slices, so the steady-state encode path allocates nothing.

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendKV(dst []byte, kv KV) []byte {
	dst = append(dst, byte(kv.NS))
	dst = appendString(dst, kv.Key)
	dst = appendBytes(dst, kv.Val)
	if kv.Delete {
		return append(dst, 1)
	}
	return append(dst, 0)
}

type reader struct {
	b []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortBuffer
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errShortBuffer
	}
	// Capped at its own end: the bytes after it are the frame's next
	// field, which may be another value someone keeps, so an append to
	// this one must reallocate rather than write there.
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) byteVal() (byte, error) {
	if len(r.b) == 0 {
		return 0, errShortBuffer
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// decodeKV parses one item; its Val aliases the reader's buffer.
func decodeKV(r *reader) (KV, error) {
	var kv KV
	ns, err := r.byteVal()
	if err != nil {
		return kv, err
	}
	kv.NS = NS(ns)
	if kv.Key, err = r.str(); err != nil {
		return kv, err
	}
	val, err := r.bytes()
	if err != nil {
		return kv, err
	}
	if len(val) > 0 {
		kv.Val = val
	}
	del, err := r.byteVal()
	if err != nil {
		return kv, err
	}
	kv.Delete = del == 1
	return kv, nil
}

// appendRequestBody appends the request body — op, ns, key, val, prefix,
// items — that follows the message header (v2.go).
func appendRequestBody(dst []byte, q *Request) []byte {
	dst = append(dst, byte(q.Op), byte(q.NS))
	dst = appendString(dst, q.Key)
	dst = appendBytes(dst, q.Val)
	dst = appendString(dst, q.Prefix)
	dst = appendUvarint(dst, uint64(len(q.Items)))
	for _, kv := range q.Items {
		dst = appendKV(dst, kv)
	}
	return dst
}

// decodeRequestBody parses the request body into q. The request's Val and
// item Vals alias the reader's buffer (see DecodeV2).
func decodeRequestBody(r *reader, q *Request) error {
	op, err := r.byteVal()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	q.Op = Op(op)
	ns, err := r.byteVal()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	q.NS = NS(ns)
	if q.Key, err = r.str(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	val, err := r.bytes()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	if len(val) > 0 {
		q.Val = val
	}
	if q.Prefix, err = r.str(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	n, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	if n > uint64(len(r.b)) { // each KV takes at least a few bytes
		return fmt.Errorf("%w: absurd item count %d", ErrBadMessage, n)
	}
	for i := uint64(0); i < n; i++ {
		kv, err := decodeKV(r)
		if err != nil {
			return fmt.Errorf("%w: item %d: %w", ErrBadMessage, i, err)
		}
		q.Items = append(q.Items, kv)
	}
	return nil
}

// appendResponseBody appends the response body — status, err, val,
// items — that follows the message header.
func appendResponseBody(dst []byte, p *Response) []byte {
	dst = append(dst, byte(p.Status))
	dst = appendString(dst, p.Err)
	dst = appendBytes(dst, p.Val)
	dst = appendUvarint(dst, uint64(len(p.Items)))
	for _, kv := range p.Items {
		dst = appendKV(dst, kv)
	}
	return dst
}

// decodeResponseBody parses the response body into p, borrowing Val and
// item Vals from the reader's buffer.
func decodeResponseBody(r *reader, p *Response) error {
	st, err := r.byteVal()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	p.Status = Status(st)
	if p.Err, err = r.str(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	val, err := r.bytes()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	if len(val) > 0 {
		p.Val = val
	}
	n, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	if n > uint64(len(r.b)) {
		return fmt.Errorf("%w: absurd item count %d", ErrBadMessage, n)
	}
	for i := uint64(0); i < n; i++ {
		kv, err := decodeKV(r)
		if err != nil {
			return fmt.Errorf("%w: item %d: %w", ErrBadMessage, i, err)
		}
		p.Items = append(p.Items, kv)
	}
	return nil
}

// --- framing ----------------------------------------------------------------

// WriteFrame writes a length-prefixed message and returns the number of
// bytes put on the wire.
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxMessageSize {
		return 0, ErrTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 4, err
	}
	return 4 + len(payload), nil
}

// ReadFrame reads one length-prefixed message into an allocation of its
// own, exactly the payload's size, and returns it with the number of
// bytes consumed from the wire. Both peers read every frame this way:
// what is decoded from the payload may alias it, and the caller may keep
// it for as long as it likes, since nothing recycles the memory.
func ReadFrame(r io.Reader) ([]byte, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, 4, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 4, fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	return payload, 4 + int(n), nil
}

// AsError converts a non-OK response into an error.
func (p *Response) AsError() error {
	switch p.Status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusBadRequest:
		return fmt.Errorf("%w: bad request: %s", ErrRemote, p.Err)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, p.Err)
	}
}
