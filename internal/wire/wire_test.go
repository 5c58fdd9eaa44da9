package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpPing},
		{Op: OpGet, NS: NSMeta, Key: "m/42/c/3"},
		{Op: OpPut, NS: NSData, Key: "b/7", Val: []byte{1, 2, 3}},
		{Op: OpList, NS: NSSuper, Prefix: "u/"},
		{Op: OpBatchGet, NS: NSMeta, Items: []KV{
			{NS: NSMeta, Key: "a"}, {NS: NSData, Key: "b"},
		}},
		{Op: OpBatchPut, Items: []KV{
			{NS: NSMeta, Key: "a", Val: []byte("v1")},
			{NS: NSData, Key: "b", Delete: true},
		}},
	}
	for _, q := range cases {
		m, err := DecodeV2(q.EncodeV2())
		if err != nil {
			t.Fatalf("%v: %v", q.Op, err)
		}
		if !reflect.DeepEqual(&m.Req, q) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", q.Op, &m.Req, q)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Val: []byte("blob")},
		{Status: StatusNotFound},
		{Status: StatusError, Err: "disk on fire"},
		{Status: StatusOK, Items: []KV{
			{NS: NSMeta, Key: "k1", Val: []byte("v1")},
			{NS: NSMeta, Key: "k2", Val: []byte("v2")},
		}},
	}
	for _, p := range cases {
		m, err := DecodeV2(p.EncodeV2())
		if err != nil {
			t.Fatalf("%v: %v", p.Status, err)
		}
		if !reflect.DeepEqual(&m.Resp, p) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &m.Resp, p)
		}
	}
}

func TestRequestPropertyRoundTrip(t *testing.T) {
	f := func(key string, val []byte, prefix string, itemKey string, itemVal []byte, del bool) bool {
		q := &Request{Op: OpPut, NS: NSData, Key: key, Prefix: prefix}
		if len(val) > 0 {
			q.Val = val
		}
		q.Items = []KV{{NS: NSMeta, Key: itemKey, Delete: del}}
		if len(itemVal) > 0 {
			q.Items[0].Val = itemVal
		}
		m, err := DecodeV2(q.EncodeV2())
		return err == nil && reflect.DeepEqual(&m.Req, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodedValuesEndAtTheirOwnBytes: decoded values alias the frame,
// and a store may keep them there, so appending to one must never write
// into the next value's bytes.
func TestDecodedValuesEndAtTheirOwnBytes(t *testing.T) {
	frame := AppendRequestV2(nil, &Request{Op: OpBatchPut, Items: []KV{
		{NS: NSData, Key: "a", Val: []byte("first")},
		{NS: NSData, Key: "b", Val: []byte("second")},
	}})
	m, err := DecodeV2(frame)
	if err != nil {
		t.Fatal(err)
	}
	items := m.Req.Items
	_ = append(items[0].Val, "XXXXXXXX"...)
	if string(items[1].Val) != "second" {
		t.Fatalf("appending to the first value rewrote the second: %q", items[1].Val)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 2, 200}, bytes.Repeat([]byte{0xFF}, 10)} {
		if _, err := DecodeV2(requestFrame(b)); err == nil {
			t.Errorf("request body %v accepted", b)
		}
	}
	if _, err := DecodeV2(responseFrame([]byte{1, 0xFF})); err == nil {
		t.Error("garbage response body accepted")
	}
	// Absurd item counts must be rejected rather than looping.
	body := []byte{byte(OpBatchPut), 0, 0, 0, 0}      // op, ns, key="", val="", prefix=""
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // huge varint count
	if _, err := DecodeV2(requestFrame(body)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("huge item count: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("sharoes frame")
	n, err := WriteFrame(&buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4+len(payload) {
		t.Errorf("wrote %d bytes", n)
	}
	got, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n || !bytes.Equal(got, payload) {
		t.Errorf("got %q (%d bytes)", got, rn)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := WriteFrame(new(bytes.Buffer), make([]byte, MaxMessageSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized write: %v", err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed length
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized read: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello"))
	trunc := buf.Bytes()[:6]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestCodecRoundTrip drives one request and its reply through framed
// packs over a connection, the way the SSP client and server do.
func TestCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	go func() {
		payload, _, err := ReadFrame(b)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := packOfOne(payload)
		if err != nil {
			t.Error(err)
			return
		}
		if m.Kind != KindRequest || m.Req.Op != OpGet || m.Req.Key != "m/1" || m.Req.ReqID != 4 {
			t.Errorf("server got kind %d %+v", m.Kind, m.Req)
		}
		var pk Pack
		pk.Reset()
		pk.AddResponse(&Response{Status: StatusOK, Val: []byte("metadata"), ReqID: m.Req.ReqID})
		WriteFrame(b, pk.Payload())
	}()

	var pk Pack
	pk.Reset()
	pk.AddRequest(&Request{Op: OpGet, NS: NSMeta, Key: "m/1", ReqID: 4})
	out, err := WriteFrame(a, pk.Payload())
	if err != nil {
		t.Fatal(err)
	}
	payload, in, err := ReadFrame(a)
	if err != nil {
		t.Fatal(err)
	}
	m, err := packOfOne(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindResponse || m.Resp.Status != StatusOK || string(m.Resp.Val) != "metadata" || m.Resp.ReqID != 4 {
		t.Errorf("resp = kind %d %+v", m.Kind, m.Resp)
	}
	if out == 0 || in == 0 {
		t.Error("frame byte counts not reported")
	}
}

// packOfOne decodes a frame that must be a pack holding one message, and
// returns that message.
func packOfOne(frame []byte) (*Msg, error) {
	m, err := DecodeV2(frame)
	if err != nil {
		return nil, err
	}
	if m.Kind != KindPack || len(m.Pack) != 1 {
		return nil, fmt.Errorf("frame kind %d with %d elements, want a pack of one", m.Kind, len(m.Pack))
	}
	return DecodeV2(m.Pack[0])
}

func TestResponseAsError(t *testing.T) {
	if err := (&Response{Status: StatusOK}).AsError(); err != nil {
		t.Errorf("OK: %v", err)
	}
	if err := (&Response{Status: StatusNotFound}).AsError(); !errors.Is(err, ErrNotFound) {
		t.Errorf("NotFound: %v", err)
	}
	if err := (&Response{Status: StatusBadRequest, Err: "x"}).AsError(); !errors.Is(err, ErrRemote) {
		t.Errorf("BadRequest: %v", err)
	}
	if err := (&Response{Status: StatusError, Err: "y"}).AsError(); !errors.Is(err, ErrRemote) {
		t.Errorf("Error: %v", err)
	}
}

func TestOpAndNSStrings(t *testing.T) {
	ops := map[Op]string{OpPing: "ping", OpGet: "get", OpPut: "put", OpDelete: "delete",
		OpList: "list", OpBatchGet: "batchget", OpBatchPut: "batchput", OpStats: "stats", Op(99): "op(99)"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	nss := map[NS]string{NSMeta: "meta", NSData: "data", NSSuper: "super",
		NSGroupKey: "groupkey", NSSplit: "split", NSSys: "sys", NS(42): "ns(42)"}
	for ns, want := range nss {
		if ns.String() != want {
			t.Errorf("NS %d.String() = %q, want %q", ns, ns.String(), want)
		}
	}
}

func BenchmarkRequestEncode(b *testing.B) {
	q := &Request{Op: OpPut, NS: NSData, Key: "b/123456/c/2", Val: make([]byte, 4096)}
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = AppendRequestV2(dst[:0], q)
	}
}

func BenchmarkRequestDecode(b *testing.B) {
	q := &Request{Op: OpPut, NS: NSData, Key: "b/123456/c/2", Val: make([]byte, 4096)}
	payload := q.EncodeV2()
	var m Msg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeV2Into(payload, &m); err != nil {
			b.Fatal(err)
		}
	}
}
