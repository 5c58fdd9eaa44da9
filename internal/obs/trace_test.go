package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer("client")
	root := tr.Start("client.stat", ClassNone)
	child := tr.Start("resolve", ClassNone)
	leaf := tr.Start("crypto.open-meta", ClassCrypto)
	leaf.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// End order: leaf, child, root.
	gotLeaf, gotChild, gotRoot := spans[0], spans[1], spans[2]
	if gotRoot.Parent != 0 {
		t.Fatalf("root has parent %d", gotRoot.Parent)
	}
	if gotChild.Parent != gotRoot.ID || gotLeaf.Parent != gotChild.ID {
		t.Fatal("parent chain broken")
	}
	if gotChild.Trace != gotRoot.Trace || gotLeaf.Trace != gotRoot.Trace {
		t.Fatal("trace IDs diverge within one tree")
	}
	for _, sp := range spans {
		if sp.Dur <= 0 {
			t.Fatalf("span %s has duration %v", sp.Name, sp.Dur)
		}
	}

	// A second root opens a fresh trace.
	r2 := tr.Start("client.mkdir", ClassNone)
	r2.End()
	if got := tr.Spans()[3]; got.Trace == gotRoot.Trace {
		t.Fatal("new root reused old trace ID")
	}
}

func TestStartRemoteJoinsTrace(t *testing.T) {
	client := NewTracer("client")
	server := NewTracer("ssp")

	root := client.Start("client.stat", ClassNone)
	tid, sid := client.Current()
	if tid != root.Trace || sid != root.ID {
		t.Fatal("Current does not report the open root")
	}
	remote := server.StartRemote(tid, sid, "ssp.get", ClassNone)
	remote.End()
	root.End()

	ss := server.Spans()
	if len(ss) != 1 {
		t.Fatalf("server spans = %d", len(ss))
	}
	if ss[0].Trace != root.Trace || ss[0].Parent != root.ID {
		t.Fatal("remote span did not join the client trace")
	}
	if ss[0].Proc != "ssp" {
		t.Fatalf("remote span proc = %q", ss[0].Proc)
	}

	// Zero trace ID (untraced peer) must produce no span.
	if sp := server.StartRemote(0, 0, "ssp.get", ClassNone); sp != nil {
		t.Fatal("StartRemote with zero trace returned a span")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", ClassCrypto)
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.Annotate("k", "v") // must not panic
	sp.End()
	if tid, sid := tr.Current(); tid != 0 || sid != 0 {
		t.Fatal("nil tracer Current not zero")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestDoubleEndAndAnnotate(t *testing.T) {
	tr := NewTracer("client")
	sp := tr.Start("op", ClassNone)
	sp.Annotate("path", "/a/b")
	sp.End()
	sp.End() // no-op
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
	at := tr.Spans()[0].Attrs()
	if len(at) != 1 || at[0].Key != "path" || at[0].Val != "/a/b" {
		t.Fatalf("attrs = %v", at)
	}
}

func TestSpanLimit(t *testing.T) {
	tr := NewTracer("client")
	tr.limit = 4
	for i := 0; i < 10; i++ {
		tr.Start("op", ClassNone).End()
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("retained %d spans, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	client := NewTracer("client")
	server := NewTracer("ssp")
	root := client.Start("client.create", ClassNone)
	rpc := client.Start("rpc.batchput", ClassNetwork)
	rpc.Annotate("bytes_out", "512")
	tid, sid := client.Current()
	remote := server.StartRemote(tid, sid, "ssp.batchput", ClassNone)
	time.Sleep(time.Millisecond)
	remote.End()
	rpc.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, client.Spans(), server.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	var meta, complete int
	pids := map[int]bool{}
	tids := map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			pids[ev.Pid] = true
			tids[ev.Tid] = true
			if ev.Dur <= 0 {
				t.Errorf("event %s has dur %v", ev.Name, ev.Dur)
			}
			if ev.Ts < 0 {
				t.Errorf("event %s has negative ts", ev.Name)
			}
		}
	}
	if meta != 2 {
		t.Fatalf("process metadata events = %d, want 2 (client + ssp)", meta)
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if len(pids) != 2 {
		t.Fatalf("distinct pids = %d, want 2", len(pids))
	}
	// All three spans belong to one trace → one thread lane.
	if len(tids) != 1 {
		t.Fatalf("distinct tids = %d, want 1", len(tids))
	}
	if v, ok := doc.TraceEvents[2].Args["bytes_out"]; ok && v != "512" {
		t.Fatalf("annotation lost: %v", v)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}
