package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestShardedClientsNegotiateV2 builds the production shape — a shard
// router over pipelined connections to real (simulated) SSP servers — and
// checks that quorum writes and hedged reads round-trip through the
// pack frames of every connection. Nothing is negotiated on a
// connection; the name predates that.
func TestShardedClientsNegotiateV2(t *testing.T) {
	const shards = 3
	backends := make([]Backend, shards)
	for i := 0; i < shards; i++ {
		lis := netsim.Listen(netsim.Unlimited)
		srv := ssp.NewServer(ssp.NewMemStore(), nil)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		c, err := ssp.Dial(lis.Dial, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		backends[i] = Backend{ID: fmt.Sprintf("s%d", i), Store: c}
	}
	s, err := New(backends, Options{Replicas: 2, HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Enough keys that every shard serves both replicas and hedges.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k/%d", i)
		if err := s.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k/%d", i)
		got, err := s.Get(wire.NSData, key)
		if err != nil || !bytes.Equal(got, []byte(key)) {
			t.Fatalf("get %s: %q, %v", key, got, err)
		}
	}
}
