package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestV2RequestRoundTrip(t *testing.T) {
	for _, q := range seedRequests() {
		m, err := DecodeV2(q.EncodeV2())
		if err != nil {
			t.Fatalf("DecodeV2(%+v): %v", q, err)
		}
		if m.Kind != KindRequest {
			t.Fatalf("kind = %d, want KindRequest", m.Kind)
		}
		if !reflect.DeepEqual(normalizeReq(q), normalizeReq(&m.Req)) {
			t.Fatalf("round trip diverged:\n  %+v\n  %+v", q, &m.Req)
		}
	}
}

func TestV2ResponseRoundTrip(t *testing.T) {
	for _, p := range seedResponses() {
		m, err := DecodeV2(p.EncodeV2())
		if err != nil {
			t.Fatalf("DecodeV2(%+v): %v", p, err)
		}
		if m.Kind != KindResponse {
			t.Fatalf("kind = %d, want KindResponse", m.Kind)
		}
		if !reflect.DeepEqual(normalizeResp(p), normalizeResp(&m.Resp)) {
			t.Fatalf("round trip diverged:\n  %+v\n  %+v", p, &m.Resp)
		}
	}
}

// TestReqIDRoundTrip checks that every combination of the three request
// extensions, and the response's ReqID, survives encode and decode.
func TestReqIDRoundTrip(t *testing.T) {
	cases := []struct {
		name          string
		tid, sid, rid uint64
	}{
		{"mux only", 0, 0, 5},
		{"traced mux", 7, 9, 5},
		{"neither", 0, 0, 0},
		{"traced only", 7, 9, 0},
		{"span only", 0, 9, 5},
		{"varint boundary", 1<<64 - 1, 1 << 63, 1<<64 - 1},
	}
	for _, tc := range cases {
		q := &Request{Op: OpGet, NS: NSMeta, Key: "m/1/o", TraceID: tc.tid, SpanID: tc.sid, ReqID: tc.rid}
		m, err := DecodeV2(q.EncodeV2())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := m.Req; got.TraceID != tc.tid || got.SpanID != tc.sid || got.ReqID != tc.rid {
			t.Fatalf("%s: decoded %d/%d/%d, want %d/%d/%d", tc.name,
				got.TraceID, got.SpanID, got.ReqID, tc.tid, tc.sid, tc.rid)
		}
	}
	for _, rid := range []uint64{0, 5, 1<<64 - 1} {
		p := &Response{Status: StatusOK, Val: []byte("v"), ReqID: rid}
		m, err := DecodeV2(p.EncodeV2())
		if err != nil {
			t.Fatalf("resp rid=%d: %v", rid, err)
		}
		if m.Resp.ReqID != rid {
			t.Fatalf("resp decoded rid %d, want %d", m.Resp.ReqID, rid)
		}
	}
}

// TestTraceExtensionRoundTrip: traced requests keep their IDs, varint
// boundary values included.
func TestTraceExtensionRoundTrip(t *testing.T) {
	for _, q := range []*Request{
		{Op: OpGet, NS: NSMeta, Key: "m/1/o", TraceID: 7, SpanID: 9},
		{Op: OpPing, TraceID: 1<<64 - 1, SpanID: 1 << 63},
	} {
		m, err := DecodeV2(q.EncodeV2())
		if err != nil {
			t.Fatal(err)
		}
		if m.Req.TraceID != q.TraceID || m.Req.SpanID != q.SpanID {
			t.Fatalf("trace ids = %d/%d, want %d/%d", m.Req.TraceID, m.Req.SpanID, q.TraceID, q.SpanID)
		}
	}
}

// TestHelloAckRoundTrip checks both halves of the connection opener.
func TestHelloAckRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		b    []byte
		kind int
		ver  uint64
	}{
		{AppendHello(nil, 3, 0), KindHello, 3},
		{AppendHelloAck(nil, Version2, 0), KindHelloAck, Version2},
	} {
		m, err := DecodeV2(tc.b)
		if err != nil {
			t.Fatalf("DecodeV2(kind %d): %v", tc.kind, err)
		}
		if m.Kind != tc.kind || m.HelloVer != tc.ver || m.HelloCaps != 0 {
			t.Fatalf("decoded as kind=%d ver=%d caps=%d, want kind=%d ver=%d caps=0",
				m.Kind, m.HelloVer, m.HelloCaps, tc.kind, tc.ver)
		}
	}
}

// TestV2Corrupt drives the parser through hostile headers: every case
// must surface ErrBadMessage — never panic, never misparse.
func TestV2Corrupt(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", []byte{Magic, Version2}},
		{"bad magic", []byte{0x54, Version2, KindRequest, byte(OpPing), 0, 0, 0, 0, 0}},
		{"v1 request", []byte{byte(OpGet), byte(NSMeta), 1, 'k', 0, 0, 0}},
		{"future version", []byte{Magic, 0x03, KindRequest, byte(OpPing), 0, 0, 0, 0, 0}},
		{"zero version", []byte{Magic, 0x00, KindRequest, byte(OpPing), 0, 0, 0, 0, 0}},
		{"kind zero", []byte{Magic, Version2, 0x00, 0, 0}},
		{"kind out of range", []byte{Magic, Version2, 0x0f, 0, 0}},
		{"ext block truncated", []byte{Magic, Version2, KindRequest | infoHasExt}},
		{"ext count absurd", append([]byte{Magic, Version2, KindRequest | infoHasExt}, 0xff, 0xff, 0x01)},
		{"ext val truncated", []byte{Magic, Version2, KindRequest | infoHasExt, 1, ExtReqID}},
		{"request body truncated", []byte{Magic, Version2, KindRequest}},
		{"response body truncated", []byte{Magic, Version2, KindResponse, byte(StatusOK)}},
		{"hello truncated", []byte{Magic, Version2, KindHello}},
		{"pack count truncated", []byte{Magic, Version2, KindPack}},
		{"pack short length", []byte{Magic, Version2, KindPack, 1, 0, 0}},
		{"pack length overrun", []byte{Magic, Version2, KindPack, 1, 0, 0, 0, 99, 1}},
		{"pack count absurd", []byte{Magic, Version2, KindPack, 0xff, 0xff, 0x01}},
	}
	for _, tc := range cases {
		if _, err := DecodeV2(tc.b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", tc.name, err)
		}
	}
}

func TestV2NestedPackRejected(t *testing.T) {
	var inner Pack
	inner.Reset()
	inner.AddRequest(&Request{Op: OpPing})
	inner.AddRequest(&Request{Op: OpStats})
	innerBytes := inner.Payload()

	// Hand-build an outer pack whose single element is the inner pack.
	outer := []byte{Magic, Version2, KindPack, 1}
	outer = append(outer, byte(len(innerBytes)>>24), byte(len(innerBytes)>>16),
		byte(len(innerBytes)>>8), byte(len(innerBytes)))
	outer = append(outer, innerBytes...)
	if _, err := DecodeV2(outer); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("nested pack: err = %v, want ErrBadMessage", err)
	}
}

func TestPackRoundTrip(t *testing.T) {
	reqs := seedRequests()
	resps := seedResponses()
	var pk Pack
	pk.Reset()
	for _, q := range reqs {
		if n := pk.AddRequest(q); n != len(q.EncodeV2()) {
			t.Fatalf("AddRequest length %d != standalone %d", n, len(q.EncodeV2()))
		}
	}
	for _, p := range resps {
		pk.AddResponse(p)
	}
	if pk.Len() != len(reqs)+len(resps) {
		t.Fatalf("pack len %d, want %d", pk.Len(), len(reqs)+len(resps))
	}
	m, err := DecodeV2(pk.Payload())
	if err != nil {
		t.Fatalf("DecodeV2(pack): %v", err)
	}
	if m.Kind != KindPack || len(m.Pack) != len(reqs)+len(resps) {
		t.Fatalf("pack decoded kind=%d n=%d, want kind=%d n=%d",
			m.Kind, len(m.Pack), KindPack, len(reqs)+len(resps))
	}
	var sub Msg
	for i, q := range reqs {
		if err := DecodeV2Into(m.Pack[i], &sub); err != nil {
			t.Fatalf("pack[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeReq(q), normalizeReq(&sub.Req)) {
			t.Fatalf("pack[%d] diverged:\n  %+v\n  %+v", i, q, &sub.Req)
		}
	}
	for i, p := range resps {
		if err := DecodeV2Into(m.Pack[len(reqs)+i], &sub); err != nil {
			t.Fatalf("pack resp[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResp(p), normalizeResp(&sub.Resp)) {
			t.Fatalf("pack resp[%d] diverged:\n  %+v\n  %+v", i, p, &sub.Resp)
		}
	}
}

// TestPackSingleUnwrap pins the one-message optimization: a batch of one
// is sent as the bare message, so peers never see degenerate packs.
func TestPackSingleUnwrap(t *testing.T) {
	q := &Request{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice", ReqID: 7}
	var pk Pack
	pk.Reset()
	pk.AddRequest(q)
	payload := pk.Payload()
	if !reflect.DeepEqual(payload, q.EncodeV2()) {
		t.Fatalf("single-message pack payload != bare encoding:\n  %x\n  %x",
			payload, q.EncodeV2())
	}
}

// TestPackReuse checks that a writer goroutine can Reset/refill the same
// builder without the batches bleeding into each other.
func TestPackReuse(t *testing.T) {
	var pk Pack
	for round := 0; round < 3; round++ {
		pk.Reset()
		pk.AddRequest(&Request{Op: OpPing, ReqID: uint64(round) + 1})
		pk.AddRequest(&Request{Op: OpStats, ReqID: uint64(round) + 100})
		m, err := DecodeV2(pk.Payload())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(m.Pack) != 2 {
			t.Fatalf("round %d: %d sub-messages, want 2", round, len(m.Pack))
		}
		var sub Msg
		if err := DecodeV2Into(m.Pack[0], &sub); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sub.Req.ReqID != uint64(round)+1 {
			t.Fatalf("round %d: ReqID %d, want %d", round, sub.Req.ReqID, round+1)
		}
	}
}

// TestV2UnknownExtSkipped checks forward compatibility: extensions this
// build doesn't know (including the reserved ExtShardRoute) must be
// skipped, not rejected.
func TestV2UnknownExtSkipped(t *testing.T) {
	b := appendV2Header(nil, KindRequest,
		[2]uint64{ExtShardRoute, 42}, [2]uint64{99, 1}, [2]uint64{ExtReqID, 5})
	b = appendRequestBody(b, &Request{Op: OpPing})
	m, err := DecodeV2(b)
	if err != nil {
		t.Fatalf("DecodeV2 with unknown exts: %v", err)
	}
	if m.Req.Op != OpPing || m.Req.ReqID != 5 {
		t.Fatalf("decoded op=%d reqid=%d, want ping/5", m.Req.Op, m.Req.ReqID)
	}
}

// TestV2BorrowedAliasing pins the zero-copy contract: DecodeV2 Vals alias
// the input, and Detach breaks the alias.
func TestV2BorrowedAliasing(t *testing.T) {
	q := &Request{Op: OpPut, NS: NSData, Key: "k", Val: []byte("hello")}
	b := q.EncodeV2()
	m, err := DecodeV2(b)
	if err != nil {
		t.Fatal(err)
	}
	// The body ends with prefix-len and item-count bytes; the last Val
	// byte sits three from the end.
	b[len(b)-3] = 'X'
	if string(m.Req.Val) != "hellX" {
		t.Fatalf("borrowed Val did not alias input: %q", m.Req.Val)
	}
	m.Req.Detach()
	b[len(b)-3] = 'Y'
	if string(m.Req.Val) != "hellX" {
		t.Fatalf("detached Val still aliases input: %q", m.Req.Val)
	}
}

// FuzzDecodeV2Frame checks that DecodeV2 never panics on arbitrary input
// and that accepted request/response frames survive a canonical
// re-encode round trip.
func FuzzDecodeV2Frame(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(q.EncodeV2())
	}
	for _, p := range seedResponses() {
		f.Add(p.EncodeV2())
	}
	f.Add(AppendHello(nil, Version2, 0))
	f.Add(AppendHelloAck(nil, 2, 0))
	var pk Pack
	pk.Reset()
	pk.AddRequest(&Request{Op: OpPing, ReqID: 1})
	pk.AddResponse(&Response{Status: StatusOK, ReqID: 1})
	f.Add(append([]byte(nil), pk.Payload()...))
	f.Add([]byte{Magic, Version2, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeV2(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("non-ErrBadMessage failure: %v", err)
			}
			return
		}
		switch m.Kind {
		case KindRequest:
			checkRequestRoundTrip(t, &m.Req)
		case KindResponse:
			checkResponseRoundTrip(t, &m.Resp)
		case KindPack:
			var sub Msg
			for i, raw := range m.Pack {
				if err := DecodeV2Into(raw, &sub); err != nil && !errors.Is(err, ErrBadMessage) {
					t.Fatalf("pack[%d]: non-ErrBadMessage failure: %v", i, err)
				}
			}
		}
	})
}
