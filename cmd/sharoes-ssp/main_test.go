package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestRunUsageErrors: every flag or argument error exits 2 before
// anything listens.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-addr", "127.0.0.1:0", "extra"},
		{"-addr", " , "},
		{"-addr", "127.0.0.1:0", "-store", "tape"},
		{"-addr", "127.0.0.1:0", "-fault", "1:writeerr"},
		{"-addr", "127.0.0.1:0", "-grace", "soon"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != exitUsage {
			t.Errorf("run %q: exit %d, want %d\nstderr: %s", args, code, exitUsage, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("run %q wrote %q to stdout", args, out.String())
		}
	}
}

// lockedBuffer is a bytes.Buffer safe for the server loggers' concurrent
// writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startRun starts run with args until ctx is cancelled and returns the
// address it serves on, the channel its exit code arrives on, and its
// stderr.
func startRun(t *testing.T, ctx context.Context, args ...string) (string, <-chan int, *lockedBuffer) {
	t.Helper()
	pr, pw := io.Pipe()
	stderr := &lockedBuffer{}
	exited := make(chan int, 1)
	go func() {
		code := run(ctx, args, pw, stderr)
		pw.Close()
		exited <- code
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "serving mem store on "); ok {
				addrc <- addr
			}
		}
	}()
	select {
	case addr := <-addrc:
		return addr, exited, stderr
	case code := <-exited:
		t.Fatalf("exit %d before serving\nstderr: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("not serving after 10s")
	}
	return "", nil, nil
}

// TestRunExitsWithAStuckStore: a request stuck inside the store does not
// keep the server command from exiting. The store here sleeps an hour in
// every read (a slow fault rule); once the request is in it, cancelling
// drains for the 50 ms grace and run exits 1, naming the stuck connection.
func TestRunExitsWithAStuckStore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, exited, stderr := startRun(t, ctx, "-addr", "127.0.0.1:0", "-grace", "50ms", "-fault", "0:slow:1h")
	c, err := ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Go(&wire.Request{Op: wire.OpBatchGet, Items: []wire.KV{{NS: wire.NSData, Key: "k"}}}, nil)
	// The server reads one connection's frames in order and counts a
	// request in flight before it reads the next frame, so once this
	// ping is answered the BatchGet is in the store.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case code := <-exited:
		if code != exitFail {
			t.Fatalf("exit %d with a stuck store, want %d\nstderr: %s", code, exitFail, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel with a stuck store")
	}
	if !strings.Contains(stderr.String(), "1 connection(s) still have a request in the store") {
		t.Errorf("stderr does not name the stuck connection:\n%s", stderr.String())
	}
}

// TestRunServesUntilCancelled: a loopback SSP on 127.0.0.1:0, with its
// debug endpoint, answers Ping, BatchPut and BatchGet, and on cancel
// drains and exits 0 with no connection left open (its final snapshot
// reads ssp.conns 0).
func TestRunServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, exited, stderr := startRun(t, ctx, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-grace", "2s")

	c, err := ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	put := []wire.KV{{NS: wire.NSData, Key: "k1", Val: []byte("v1")}, {NS: wire.NSMeta, Key: "k2", Val: []byte("v2")}}
	if err := c.BatchPut(put); err != nil {
		t.Fatal(err)
	}
	got, err := c.BatchGet([]wire.KV{{NS: wire.NSData, Key: "k1"}, {NS: wire.NSMeta, Key: "k2"}, {NS: wire.NSData, Key: "absent"}})
	if err != nil || len(got) != 2 || string(got[0].Val) != "v1" || string(got[1].Val) != "v2" {
		t.Fatalf("BatchGet = %+v, %v", got, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case code := <-exited:
		if code != exitOK {
			t.Fatalf("exit %d after cancel, want %d\nstderr: %s", code, exitOK, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	_, snap, ok := strings.Cut(stderr.String(), "final metrics snapshot:\n")
	if !ok {
		t.Fatalf("no final snapshot on stderr: %s", stderr.String())
	}
	var metrics obs.RegistrySnapshot
	if err := json.NewDecoder(strings.NewReader(snap)).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if n, ok := metrics.Gauges["ssp.conns"]; !ok || n != 0 {
		t.Errorf("ssp.conns after drain = %d (present %v), want 0", n, ok)
	}
	if metrics.Counters["ssp.op.batchput"] != 1 || metrics.Counters["ssp.op.batchget"] != 1 {
		t.Errorf("op counters %v, want one batchput and one batchget", metrics.Counters)
	}
}

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{":7070", []string{":7070"}},
		{":7070,:7071,:7072", []string{":7070", ":7071", ":7072"}},
		{" :7070 , :7071 ", []string{":7070", ":7071"}},
		{":7070,,:7071,", []string{":7070", ":7071"}},
		{"", nil},
		{" , ,", nil},
	}
	for _, c := range cases {
		if got := splitAddrs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitAddrs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec   string
		shards int
		want   [][]ssp.FaultRule
	}{
		{"", 2, [][]ssp.FaultRule{nil, nil}},
		{"0:writeerr", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultWriteErr}}}},
		{"1:slow:5ms", 2, [][]ssp.FaultRule{nil, {{Mode: ssp.FaultSlow, Delay: 5 * time.Millisecond}}}},
		{"0:drop", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultConnDrop}}}},
		{"0:flap", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultFlap}}}},
		{"0:flap:25", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultFlap, Every: 25}}}},
		{
			" 0:writeerr , 2:flap:3,0:slow:1s", 3,
			[][]ssp.FaultRule{
				{{Mode: ssp.FaultWriteErr}, {Mode: ssp.FaultSlow, Delay: time.Second}},
				nil,
				{{Mode: ssp.FaultFlap, Every: 3}},
			},
		},
	}
	for _, c := range cases {
		got, err := parseFaults(c.spec, c.shards)
		if err != nil {
			t.Errorf("parseFaults(%q, %d): %v", c.spec, c.shards, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFaults(%q, %d) = %+v, want %+v", c.spec, c.shards, got, c.want)
		}
	}
}

func TestParseFaultsRejects(t *testing.T) {
	cases := []struct {
		spec, why string
	}{
		{"0", "want idx:mode"},
		{"writeerr", "want idx:mode"},
		{"0:writeerr,", "want idx:mode"},        // empty trailing entry
		{"0:writeerr,,1:drop", "want idx:mode"}, // empty middle entry
		{"2:writeerr", "shard index"},           // one past the last shard
		{"-1:writeerr", "shard index"},
		{"x:writeerr", "shard index"},
		{"0:slow", "slow delay"},
		{"0:slow:fast", "slow delay"},
		{"0:flap:0", "flap period"},
		{"0:flap:-3", "flap period"},
		{"0:flap:often", "flap period"},
		{"0:tamper", "unknown fault mode"},
	}
	for _, c := range cases {
		got, err := parseFaults(c.spec, 2)
		if err == nil {
			t.Errorf("parseFaults(%q) = %+v, want an error", c.spec, got)
			continue
		}
		if !strings.Contains(err.Error(), c.why) {
			t.Errorf("parseFaults(%q) error %q does not mention %q", c.spec, err, c.why)
		}
	}
}
