package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// Fuzz seeds: every valid encoding the unit tests exercise plus the
// corrupt-frame table, so the fuzzer starts from both sides of the
// accept/reject boundary.
func seedRequests() []*Request {
	return []*Request{
		{Op: OpPing},
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice"},
		{Op: OpPut, NS: NSData, Key: "f/9/0/3", Val: []byte("sealed-bytes")},
		{Op: OpDelete, NS: NSSuper, Key: "sb/corp/alice"},
		{Op: OpList, NS: NSData, Prefix: "f/9/"},
		{Op: OpBatchGet, Items: []KV{{NS: NSMeta, Key: "a"}, {NS: NSData, Key: "b"}}},
		{Op: OpBatchPut, Items: []KV{
			{NS: NSMeta, Key: "a", Val: []byte("x")},
			{NS: NSData, Key: "b", Delete: true},
		}},
		{Op: OpStats},
		// Header-field frames: traced, traced and multiplexed, and
		// multiplexed alone (see Request.TraceID and Request.ReqID).
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice", TraceID: 7, SpanID: 9},
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice", TraceID: 7, SpanID: 9, ReqID: 3},
		{Op: OpPut, NS: NSData, Key: "f/9/0/3", Val: []byte("sealed-bytes"), ReqID: 1<<64 - 1},
	}
}

func seedResponses() []*Response {
	return []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Val: []byte("blob")},
		{Status: StatusNotFound},
		{Status: StatusBadRequest, Err: "unknown op"},
		{Status: StatusError, Err: "disk full"},
		{Status: StatusOK, Items: []KV{{NS: NSData, Key: "k", Val: []byte("v")}}},
		// Frames carrying a nonzero ReqID (see Response.ReqID).
		{Status: StatusOK, Val: []byte("blob"), ReqID: 3},
		{Status: StatusNotFound, ReqID: 1<<64 - 1},
	}
}

// FuzzDecodeRequest checks that DecodeV2 never panics on request frames,
// that every rejection is an ErrBadMessage with a nil message, and that
// accepted requests survive a canonical re-encode round trip. Seeds are
// the valid requests plus the corrupt request bodies behind a request header.
func FuzzDecodeRequest(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(q.EncodeV2())
	}
	for _, tc := range corruptFrames {
		f.Add(requestFrame(tc.b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeV2(b)
		if err != nil {
			checkRejection(t, m, err)
			return
		}
		if m.Kind == KindRequest {
			checkRequestRoundTrip(t, &m.Req)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	for _, p := range seedResponses() {
		f.Add(p.EncodeV2())
	}
	f.Add(responseFrame([]byte{0xff, 0xff, 0xff}))
	for _, tc := range corruptResponses {
		f.Add(responseFrame(tc.b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeV2(b)
		if err != nil {
			checkRejection(t, m, err)
			return
		}
		if m.Kind == KindResponse {
			checkResponseRoundTrip(t, &m.Resp)
		}
	})
}

func checkRejection(t *testing.T, m *Msg, err error) {
	t.Helper()
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("non-ErrBadMessage failure: %v", err)
	}
	if m != nil {
		t.Fatal("non-nil message alongside error")
	}
}

// checkRequestRoundTrip re-encodes an accepted request (EncodeV2 is
// canonical) and requires one more decode to reproduce it exactly.
func checkRequestRoundTrip(t *testing.T, q *Request) {
	t.Helper()
	m2, err := DecodeV2(q.EncodeV2())
	if err != nil {
		t.Fatalf("re-decode of canonical encoding failed: %v", err)
	}
	if !reflect.DeepEqual(normalizeReq(q), normalizeReq(&m2.Req)) {
		t.Fatalf("request round trip diverged:\n  %+v\n  %+v", q, &m2.Req)
	}
}

func checkResponseRoundTrip(t *testing.T, p *Response) {
	t.Helper()
	m2, err := DecodeV2(p.EncodeV2())
	if err != nil {
		t.Fatalf("re-decode of canonical encoding failed: %v", err)
	}
	if !reflect.DeepEqual(normalizeResp(p), normalizeResp(&m2.Resp)) {
		t.Fatalf("response round trip diverged:\n  %+v\n  %+v", p, &m2.Resp)
	}
}

// FuzzReadFrame checks the framing layer: hostile length prefixes must be
// rejected by the size limit, and every accepted frame must return
// exactly the payload written.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := ReadFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		if n != 4+len(payload) {
			t.Fatalf("consumed %d bytes for %d-byte payload", n, len(payload))
		}
		if len(payload) > MaxMessageSize {
			t.Fatalf("oversized payload accepted: %d", len(payload))
		}
	})
}

// normalizeReq maps empty and nil slices together for comparison (the
// wire format does not distinguish them).
func normalizeReq(q *Request) *Request {
	out := *q
	if len(out.Val) == 0 {
		out.Val = nil
	}
	out.Items = normalizeKVs(out.Items)
	return &out
}

func normalizeResp(p *Response) *Response {
	out := *p
	if len(out.Val) == 0 {
		out.Val = nil
	}
	out.Items = normalizeKVs(out.Items)
	return &out
}

func normalizeKVs(items []KV) []KV {
	if len(items) == 0 {
		return nil
	}
	out := make([]KV, len(items))
	for i, kv := range items {
		if len(kv.Val) == 0 {
			kv.Val = nil
		}
		out[i] = kv
	}
	return out
}
