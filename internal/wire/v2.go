package wire

import (
	"encoding/binary"
	"fmt"
)

// The frame layout: the only one the client and the SSP speak. Both
// peers are built from this tree, so the layout carries no magic, no
// version and nothing to negotiate; a change to it is a flag day
// (DESIGN.md §7, refinement 22). The V2 in the function names is only a
// name.
//
// Inside the 4-byte length framing of WriteFrame, every frame is a pack:
//
//	frame := KindPack, uvarint n, n × (u32 len, msg)
//	msg   := KindRequest,  uvarint ReqID, uvarint TraceID, uvarint SpanID, body
//	       | KindResponse, uvarint ReqID, body
//	body  = kind-specific (wire.go)
//
// A pack never holds a pack. The client sends packs of requests and the
// server packs of responses; each reader closes the connection on
// anything else, and any message that does not parse is ErrBadMessage.
const (
	KindRequest  = 1
	KindResponse = 2
	KindPack     = 3
)

// MaxPackFrames bounds the messages in one pack; it is both the
// encoder's coalescing limit and the decoder's sanity bound.
const MaxPackFrames = 256

// Msg is a decoded message. Exactly one of the kind-specific fields is
// meaningful, selected by Kind.
type Msg struct {
	Kind int

	Req  Request  // KindRequest
	Resp Response // KindResponse

	// Pack holds each element's raw bytes, aliasing the input buffer.
	// KindPack only; decode each element with DecodeV2Into.
	Pack [][]byte
}

// AppendRequestV2 appends the encoding of q to dst: the kind, the
// fixed header (ReqID, TraceID, SpanID) and the body.
func AppendRequestV2(dst []byte, q *Request) []byte {
	dst = append(dst, KindRequest)
	dst = appendUvarint(dst, q.ReqID)
	dst = appendUvarint(dst, q.TraceID)
	dst = appendUvarint(dst, q.SpanID)
	return appendRequestBody(dst, q)
}

// EncodeV2 serializes the request as one message.
func (q *Request) EncodeV2() []byte { return AppendRequestV2(nil, q) }

// AppendResponseV2 appends the encoding of p to dst: the kind, the
// ReqID and the body.
func AppendResponseV2(dst []byte, p *Response) []byte {
	dst = append(dst, KindResponse)
	dst = appendUvarint(dst, p.ReqID)
	return appendResponseBody(dst, p)
}

// EncodeV2 serializes the response as one message.
func (p *Response) EncodeV2() []byte { return AppendResponseV2(nil, p) }

// DecodeV2 parses one message. Byte slices in the result (request/
// response Vals, pack elements) alias b — the zero-copy contract: they
// keep b alive, and b must not be written while any of them is in use.
// A frame from ReadFrame is memory of its own, so that needs nothing.
func DecodeV2(b []byte) (*Msg, error) {
	var m Msg
	if err := DecodeV2Into(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DecodeV2Into parses one message into m, reusing m's allocations
// (Items and Pack slices are truncated and re-grown). Borrowed-aliasing
// rules match DecodeV2. The kinds are Request, Response and Pack, and a
// pack's elements are never packs. Corrupt input returns ErrBadMessage,
// never panics.
func DecodeV2Into(b []byte, m *Msg) error {
	if len(b) == 0 {
		return fmt.Errorf("%w: empty message", ErrBadMessage)
	}
	kind := int(b[0])
	*m = Msg{Kind: kind, Req: Request{Items: m.Req.Items[:0]},
		Resp: Response{Items: m.Resp.Items[:0]}, Pack: m.Pack[:0]}
	r := &reader{b: b[1:]}
	switch kind {
	case KindRequest:
		for _, f := range []*uint64{&m.Req.ReqID, &m.Req.TraceID, &m.Req.SpanID} {
			v, err := r.uvarint()
			if err != nil {
				return fmt.Errorf("%w: request header: %w", ErrBadMessage, err)
			}
			*f = v
		}
		return decodeRequestBody(r, &m.Req)
	case KindResponse:
		v, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: response header: %w", ErrBadMessage, err)
		}
		m.Resp.ReqID = v
		return decodeResponseBody(r, &m.Resp)
	case KindPack:
		n, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: pack count: %w", ErrBadMessage, err)
		}
		if n == 0 || n > MaxPackFrames {
			return fmt.Errorf("%w: pack count %d", ErrBadMessage, n)
		}
		for i := uint64(0); i < n; i++ {
			if len(r.b) < 4 {
				return fmt.Errorf("%w: pack %d: short length", ErrBadMessage, i)
			}
			sz := binary.BigEndian.Uint32(r.b)
			r.b = r.b[4:]
			if uint64(sz) > uint64(len(r.b)) {
				return fmt.Errorf("%w: pack %d: length %d exceeds remaining %d", ErrBadMessage, i, sz, len(r.b))
			}
			sub := r.b[:sz]
			r.b = r.b[sz:]
			// Nested packs are rejected: they would let a small frame
			// claim quadratic decode work and complicate refcounting.
			if len(sub) > 0 && sub[0] == KindPack {
				return fmt.Errorf("%w: pack %d: nested pack", ErrBadMessage, i)
			}
			m.Pack = append(m.Pack, sub)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown message kind %d", ErrBadMessage, kind)
	}
}

// Pack builds one frame: every frame on the wire is a pack, so a burst
// of queued sends pays a single length-prefixed write — one syscall, one
// netsim transmit event — instead of one per message.
//
// Usage: Reset, Add* for each message, then Payload. The builder reuses
// its buffer across Reset cycles, so a long-lived writer goroutine
// amortizes to zero allocations.
type Pack struct {
	buf []byte
	n   int
}

// packHeaderLen reserves room for the pack header: the kind byte plus a
// worst-case uvarint count. Payload trims the slack.
const packHeaderLen = 1 + binary.MaxVarintLen32

// Reset clears the builder for a new batch, keeping its capacity.
func (pk *Pack) Reset() {
	if pk.buf == nil {
		pk.buf = make([]byte, packHeaderLen, 4096)
	}
	pk.buf = pk.buf[:packHeaderLen]
	pk.n = 0
}

// Len reports the number of messages added since Reset.
func (pk *Pack) Len() int { return pk.n }

// Size reports the builder's current payload size in bytes, for bounding
// a batch before it crosses a size class.
func (pk *Pack) Size() int { return len(pk.buf) }

// add frames one encoded message, returning its encoded length for
// per-message byte attribution.
func (pk *Pack) add(encode func([]byte) []byte) int {
	lenAt := len(pk.buf)
	pk.buf = append(pk.buf, 0, 0, 0, 0)
	start := len(pk.buf)
	pk.buf = encode(pk.buf)
	sz := len(pk.buf) - start
	binary.BigEndian.PutUint32(pk.buf[lenAt:], uint32(sz))
	pk.n++
	return sz
}

// AddRequest appends an encoded request, returning its message length
// in bytes.
func (pk *Pack) AddRequest(q *Request) int {
	return pk.add(func(dst []byte) []byte { return AppendRequestV2(dst, q) })
}

// AddResponse appends an encoded response, returning its message length
// in bytes.
func (pk *Pack) AddResponse(p *Response) int {
	return pk.add(func(dst []byte) []byte { return AppendResponseV2(dst, p) })
}

// Payload returns the finished frame payload, valid until the next
// Reset. The header is written right-aligned in the reserved space, so
// it sits directly before the first element.
func (pk *Pack) Payload() []byte {
	var cnt [binary.MaxVarintLen32]byte
	cn := binary.PutUvarint(cnt[:], uint64(pk.n))
	b := pk.buf[packHeaderLen-1-cn:]
	b[0] = KindPack
	copy(b[1:], cnt[:cn])
	return b
}
