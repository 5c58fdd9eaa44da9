package wire

import (
	"errors"
	"testing"
)

// requestFrame and responseFrame put a body behind a zero message
// header, so the tables below can reach the body decoders with
// hand-built bytes.
func requestFrame(body []byte) []byte {
	return append([]byte{KindRequest, 0, 0, 0}, body...)
}

func responseFrame(body []byte) []byte {
	return append([]byte{KindResponse, 0}, body...)
}

// corruptFrames is the table of malformed request bodies shared by the
// decode error-path tests and the fuzz seed corpus: truncated fields,
// oversized length prefixes, and plain garbage. Behind a request
// header, DecodeV2 must return ErrBadMessage (never panic, never
// over-allocate) for all of them.
var corruptFrames = []struct {
	name string
	b    []byte
}{
	{"empty", nil},
	{"op only", []byte{byte(OpGet)}},
	{"op+ns only", []byte{byte(OpGet), byte(NSMeta)}},
	{"truncated key length", []byte{byte(OpGet), byte(NSMeta), 0x80}},
	{"key length past end", []byte{byte(OpGet), byte(NSMeta), 10, 'a'}},
	{"huge key length", []byte{byte(OpGet), byte(NSMeta), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	{"val length past end", []byte{byte(OpPut), byte(NSData), 1, 'k', 200}},
	{"missing prefix", []byte{byte(OpList), byte(NSMeta), 0, 0}},
	{"truncated item count", []byte{byte(OpBatchPut), byte(NSMeta), 0, 0, 0, 0x80}},
	{"absurd item count", []byte{byte(OpBatchPut), byte(NSMeta), 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
	{"item truncated mid-kv", []byte{byte(OpBatchPut), byte(NSMeta), 0, 0, 0, 2, byte(NSData), 1, 'x', 0, 1, byte(NSData)}},
	{"kv missing delete byte", []byte{byte(OpBatchPut), byte(NSMeta), 0, 0, 0, 1, byte(NSData), 1, 'x', 0}},
	{"all 0xff", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
	{"overlong varint", []byte{byte(OpGet), byte(NSMeta), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}},
}

func TestDecodeRequestErrorPaths(t *testing.T) {
	for _, tc := range corruptFrames {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeV2(requestFrame(tc.b))
			if err == nil {
				t.Fatalf("DecodeV2 accepted %q: %+v", tc.name, m.Req)
			}
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error not ErrBadMessage: %v", err)
			}
			if m != nil {
				t.Fatalf("non-nil message alongside error")
			}
		})
	}
}

// corruptResponses is the response-side twin of corruptFrames: malformed
// response bodies, also seeded into the fuzz corpus.
var corruptResponses = []struct {
	name string
	b    []byte
}{
	{"empty", nil},
	{"status only", []byte{byte(StatusOK)}},
	{"truncated err string", []byte{byte(StatusError), 5, 'o'}},
	{"val length past end", []byte{byte(StatusOK), 0, 200}},
	{"truncated item count", []byte{byte(StatusOK), 0, 0, 0x80}},
	{"absurd item count", []byte{byte(StatusOK), 0, 0, 0xff, 0xff, 0xff, 0x0f}},
	{"item truncated", []byte{byte(StatusOK), 0, 0, 1, byte(NSData), 1}},
	{"all 0xff", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
}

func TestDecodeResponseErrorPaths(t *testing.T) {
	for _, tc := range corruptResponses {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeV2(responseFrame(tc.b))
			if err == nil {
				t.Fatalf("DecodeV2 accepted %q: %+v", tc.name, m.Resp)
			}
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error not ErrBadMessage: %v", err)
			}
			if m != nil {
				t.Fatalf("non-nil message alongside error")
			}
		})
	}
}

// TestDecodeRequestTrailingBytes documents the contract for well-formed
// prefixes: decoding consumes the fields it knows about and ignores bytes
// after the body.
func TestDecodeRequestTrailingBytes(t *testing.T) {
	q := &Request{Op: OpGet, NS: NSMeta, Key: "k", ReqID: 3}
	b := append(q.EncodeV2(), 0xde, 0xad)
	m, err := DecodeV2(b)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if m.Req.Op != OpGet || m.Req.Key != "k" || m.Req.ReqID != 3 {
		t.Fatalf("fields corrupted by trailing bytes: %+v", m.Req)
	}
}
