package wire

import (
	"encoding/binary"
	"fmt"
)

// Wire v2: self-describing frames, the only codec the client and the
// SSP speak. In the style of Celestia's ADR-009 universal share encoding,
// every message names its own version and kind, and optional metadata
// lives in a typed extension block up front.
//
// A message (inside the 4-byte length framing of WriteFrame) is:
//
//	msg  := magic version info [ext] body
//	magic   = 0x53 ('S')
//	version = 0x02
//	info    = bits 0-3: kind; bit 4: hasExt; bits 5-7 reserved (must be 0)
//	ext     = uvarint n, then n × (uvarint id, uvarint val); unknown ids
//	          are skipped, so new extensions never break old v2 peers
//	body    = kind-specific
//
// Kinds:
//
//	KindRequest  — body is the request body (wire.go); TraceID/SpanID/
//	               ReqID ride in the ext block
//	KindResponse — body is the response body; ReqID in the ext block
//	KindHello    — the client's opener; body is uvarint maxver, uvarint caps
//	KindHelloAck — server's acceptance; body is uvarint version, uvarint caps
//	KindPack     — batch container: uvarint n, then n × (u32 len, msg);
//	               sub-messages must not themselves be packs
//
// Any frame that does not parse this way is ErrBadMessage.
const (
	Magic    = 0x53 // 'S' for Sharoes
	Version2 = 0x02

	infoKindMask = 0x0f
	infoHasExt   = 0x10
)

// Frame kinds (info bits 0-3).
const (
	KindRequest  = 1
	KindResponse = 2
	KindHello    = 3
	KindHelloAck = 4
	KindPack     = 5
)

// Extension IDs. All values are uvarints; unknown IDs are skipped by
// decoders so the set can grow without version bumps.
const (
	ExtTraceID    = 1
	ExtSpanID     = 2
	ExtReqID      = 3
	ExtShardRoute = 4 // reserved: shard-routing hint for proxy tiers
)

// maxExtCount bounds the extension block so a corrupt count can't stall
// the parser. Far above any real use (we define four IDs).
const maxExtCount = 64

// MaxPackFrames bounds the sub-messages in one pack; it is both the
// encoder's coalescing limit and the decoder's sanity bound.
const MaxPackFrames = 256

// Msg is a decoded v2 message. Exactly one of the kind-specific fields
// is meaningful, selected by Kind.
type Msg struct {
	Kind int

	Req  Request  // KindRequest
	Resp Response // KindResponse

	HelloVer  uint64 // KindHello (peer's max version) / KindHelloAck (chosen)
	HelloCaps uint64 // capability bits; none defined yet

	// Pack holds each sub-message's raw bytes, aliasing the input
	// buffer. KindPack only; decode each element with DecodeV2.
	Pack [][]byte
}

// appendV2Header appends magic, version, info, and — when the request's
// metadata calls for it — the extension block.
func appendV2Header(dst []byte, kind int, exts ...[2]uint64) []byte {
	info := byte(kind)
	if len(exts) > 0 {
		info |= infoHasExt
	}
	dst = append(dst, Magic, Version2, info)
	if len(exts) > 0 {
		dst = appendUvarint(dst, uint64(len(exts)))
		for _, e := range exts {
			dst = appendUvarint(dst, e[0])
			dst = appendUvarint(dst, e[1])
		}
	}
	return dst
}

// AppendRequestV2 appends the v2 encoding of q to dst. TraceID, SpanID,
// and ReqID travel in the extension block, each emitted independently
// when nonzero, so every decodable combination re-encodes to the same
// message.
func AppendRequestV2(dst []byte, q *Request) []byte {
	var exts [3][2]uint64
	n := 0
	if q.TraceID != 0 {
		exts[n] = [2]uint64{ExtTraceID, q.TraceID}
		n++
	}
	if q.SpanID != 0 {
		exts[n] = [2]uint64{ExtSpanID, q.SpanID}
		n++
	}
	if q.ReqID != 0 {
		exts[n] = [2]uint64{ExtReqID, q.ReqID}
		n++
	}
	dst = appendV2Header(dst, KindRequest, exts[:n]...)
	return appendRequestBody(dst, q)
}

// EncodeV2 serializes the request as a v2 message.
func (q *Request) EncodeV2() []byte { return AppendRequestV2(nil, q) }

// AppendResponseV2 appends the v2 encoding of p to dst. ReqID travels in
// the extension block.
func AppendResponseV2(dst []byte, p *Response) []byte {
	if p.ReqID != 0 {
		dst = appendV2Header(dst, KindResponse, [2]uint64{ExtReqID, p.ReqID})
	} else {
		dst = appendV2Header(dst, KindResponse)
	}
	return appendResponseBody(dst, p)
}

// EncodeV2 serializes the response as a v2 message.
func (p *Response) EncodeV2() []byte { return AppendResponseV2(nil, p) }

// AppendHello appends the client's opener: the highest wire version it
// speaks and its capability bits (none defined yet).
func AppendHello(dst []byte, maxVer, caps uint64) []byte {
	dst = appendV2Header(dst, KindHello)
	dst = appendUvarint(dst, maxVer)
	return appendUvarint(dst, caps)
}

// AppendHelloAck appends the server's answer to a hello: the version
// both sides will speak and the server's capability bits.
func AppendHelloAck(dst []byte, version, caps uint64) []byte {
	dst = appendV2Header(dst, KindHelloAck)
	dst = appendUvarint(dst, version)
	return appendUvarint(dst, caps)
}

// DecodeV2 parses a v2 message. Byte slices in the result (request/
// response Vals, pack elements) alias b — the zero-copy contract; call
// Req.Detach/Resp.Detach to take ownership, and hold the backing Buf
// until every borrowed slice is dead.
func DecodeV2(b []byte) (*Msg, error) {
	var m Msg
	if err := DecodeV2Into(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DecodeV2Into parses a v2 message into m, reusing m's allocations
// (Items and Pack slices are truncated and re-grown). Borrowed-aliasing
// rules match DecodeV2. Corrupt input — wrong magic, unknown version,
// bad kind, truncated header — returns ErrBadMessage, never panics.
func DecodeV2Into(b []byte, m *Msg) error {
	if len(b) < 3 {
		return fmt.Errorf("%w: short v2 header (%d bytes)", ErrBadMessage, len(b))
	}
	if b[0] != Magic {
		return fmt.Errorf("%w: bad magic 0x%02x", ErrBadMessage, b[0])
	}
	if b[1] != Version2 {
		return fmt.Errorf("%w: unsupported wire version %d", ErrBadMessage, b[1])
	}
	info := b[2]
	kind := int(info & infoKindMask)
	if kind < KindRequest || kind > KindPack {
		return fmt.Errorf("%w: unknown frame kind %d", ErrBadMessage, kind)
	}
	*m = Msg{Kind: kind, Req: Request{Items: m.Req.Items[:0]},
		Resp: Response{Items: m.Resp.Items[:0]}, Pack: m.Pack[:0]}
	r := &reader{b: b[3:]}

	var traceID, spanID, reqID uint64
	if info&infoHasExt != 0 {
		n, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: ext count: %w", ErrBadMessage, err)
		}
		if n > maxExtCount {
			return fmt.Errorf("%w: absurd ext count %d", ErrBadMessage, n)
		}
		for i := uint64(0); i < n; i++ {
			id, err := r.uvarint()
			if err != nil {
				return fmt.Errorf("%w: ext %d id: %w", ErrBadMessage, i, err)
			}
			val, err := r.uvarint()
			if err != nil {
				return fmt.Errorf("%w: ext %d val: %w", ErrBadMessage, i, err)
			}
			switch id {
			case ExtTraceID:
				traceID = val
			case ExtSpanID:
				spanID = val
			case ExtReqID:
				reqID = val
				// Unknown IDs (including ExtShardRoute, which no layer
				// emits yet) are skipped for forward compatibility.
			}
		}
	}

	switch kind {
	case KindRequest:
		if err := decodeRequestBody(r, &m.Req); err != nil {
			return err
		}
		m.Req.TraceID, m.Req.SpanID, m.Req.ReqID = traceID, spanID, reqID
	case KindResponse:
		if err := decodeResponseBody(r, &m.Resp); err != nil {
			return err
		}
		m.Resp.ReqID = reqID
	case KindHello, KindHelloAck:
		ver, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: hello version: %w", ErrBadMessage, err)
		}
		caps, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: hello caps: %w", ErrBadMessage, err)
		}
		m.HelloVer, m.HelloCaps = ver, caps
	case KindPack:
		n, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: pack count: %w", ErrBadMessage, err)
		}
		if n > MaxPackFrames {
			return fmt.Errorf("%w: absurd pack count %d", ErrBadMessage, n)
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
			if len(sub) >= 3 && sub[0] == Magic && sub[1] == Version2 && sub[2]&infoKindMask == KindPack {
				return fmt.Errorf("%w: pack %d: nested pack", ErrBadMessage, i)
			}
			m.Pack = append(m.Pack, sub)
		}
	}
	return nil
}

// Pack accumulates v2 messages into one batch frame so a burst of
// queued sends pays a single length-prefixed write — one syscall, one
// netsim transmit event — instead of one per message.
//
// Usage: Reset, Add* for each message, then Payload. The builder reuses
// its buffer across Reset cycles, so a long-lived writer goroutine
// amortizes to zero allocations.
type Pack struct {
	buf []byte
	n   int
}

// packHeaderLen reserves room for the pack wrapper: 3 header bytes plus
// a worst-case uvarint count. Payload trims the slack.
const packHeaderLen = 3 + binary.MaxVarintLen32

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

// add frames one encoded sub-message, returning its encoded length for
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

// AddRequest appends a v2-encoded request, returning its sub-message
// length in bytes.
func (pk *Pack) AddRequest(q *Request) int {
	return pk.add(func(dst []byte) []byte { return AppendRequestV2(dst, q) })
}

// AddResponse appends a v2-encoded response, returning its sub-message
// length in bytes.
func (pk *Pack) AddResponse(p *Response) int {
	return pk.add(func(dst []byte) []byte { return AppendResponseV2(dst, p) })
}

// Payload returns the finished frame payload, valid until the next
// Reset. A single-message batch is unwrapped — the bare message is
// returned without the pack envelope, so peers only ever see packs when
// batching actually coalesced something.
func (pk *Pack) Payload() []byte {
	if pk.n == 1 {
		return pk.buf[packHeaderLen+4:]
	}
	// Write the header directly before the first length prefix by
	// right-aligning it in the reserved space.
	count := uint64(pk.n)
	var cnt [binary.MaxVarintLen32]byte
	cn := binary.PutUvarint(cnt[:], count)
	start := packHeaderLen - 3 - cn
	b := pk.buf[start:]
	b[0], b[1], b[2] = Magic, Version2, KindPack
	copy(b[3:], cnt[:cn])
	return b
}
