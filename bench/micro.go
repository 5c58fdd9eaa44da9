package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/resilience"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// microRow is one layer measured alone: mean time and heap allocations
// per call of fn.
type microRow struct {
	name      string  // metric stem, e.g. "micro.sharocrypto.seal_4k"
	unit      string  // unit of the time metric: ns, us or ms
	time      float64 // in unit
	hasAllocs bool    // false: the row reports no _allocs metric
	allocs    float64 // per call; a pass-through differential may read below 0
	calls     int
}

// timeName is the row's time metric: rows are named by the unit they are
// reported in.
func (m microRow) timeName() string { return m.name + "_" + m.unit }

// microBudget is how long each row loops; long enough for microsecond
// calls to average out, short enough that ~30 rows fit a traced run.
const microBudget = 40 * time.Millisecond

// timeIt calls fn once to warm it, then repeatedly for budget (and at
// least 32 times: a WAN round trip is milliseconds).
func timeIt(name, unit string, budget time.Duration, fn func() error) (microRow, error) {
	if err := fn(); err != nil {
		return microRow{}, fmt.Errorf("%s: %w", name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for time.Since(start) < budget || calls < 32 {
		for i := 0; i < 8; i++ {
			if err := fn(); err != nil {
				return microRow{}, fmt.Errorf("%s: %w", name, err)
			}
		}
		calls += 8
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	return microRow{name: name, unit: unit, calls: calls,
		time:      float64(elapsed) / float64(calls) / div,
		hasAllocs: true,
		allocs:    float64(after.Mallocs-before.Mallocs) / float64(calls)}, nil
}

// nullStore is the floor of a BlobStore: every decorator's pass-through
// cost is measured as the difference to calling it directly.
type nullStore struct{ val []byte }

func (n nullStore) Get(wire.NS, string) ([]byte, error)     { return n.val, nil }
func (n nullStore) Put(wire.NS, string, []byte) error       { return nil }
func (n nullStore) Delete(wire.NS, string) error            { return nil }
func (n nullStore) List(wire.NS, string) ([]wire.KV, error) { return nil, nil }
func (n nullStore) BatchGet([]wire.KV) ([]wire.KV, error)   { return nil, nil }
func (n nullStore) BatchPut([]wire.KV) error                { return nil }
func (n nullStore) Stats() (ssp.Stats, error)               { return ssp.Stats{}, nil }

// microCase is one row to be timed.
type microCase struct {
	name, unit string
	fn         func() error
}

// runMicro measures each layer alone on this one harness, looping each
// row for budget. The DiskStore rows work in a directory made under
// tmpRoot and removed afterwards.
func runMicro(who *principals, tmpRoot string, budget time.Duration) ([]microRow, error) {
	var cases []microCase
	add := func(name, unit string, fn func() error) { cases = append(cases, microCase{name, unit, fn}) }
	void := func(f func()) func() error { return func() error { f(); return nil } }
	aad := []byte("bench-aad")

	// --- sharocrypto: the primitives under every seal and open ---
	sym := sharocrypto.NewSymKey()
	for _, sz := range []struct {
		tag string
		n   int
	}{{"4k", 4 << 10}, {"64k", 64 << 10}} {
		plain := make([]byte, sz.n)
		sealed := sym.Seal(plain, aad)
		add("micro.sharocrypto.seal_"+sz.tag, "ns", void(func() { sym.Seal(plain, aad) }))
		add("micro.sharocrypto.open_"+sz.tag, "ns", func() error {
			_, err := sym.Open(sealed, aad)
			return err
		})
	}
	sk, vk := sharocrypto.NewSigningPair()
	msg := make([]byte, 256)
	sig := sk.Sign(msg)
	add("micro.sharocrypto.sign", "ns", void(func() { sk.Sign(msg) }))
	add("micro.sharocrypto.verify", "ns", func() error { return vk.Verify(msg, sig) })
	alice := who.users["alice"]
	rsaSealed, err := alice.Public().Seal(msg)
	if err != nil {
		return nil, err
	}
	add("micro.sharocrypto.rsa_pub", "ns", func() error {
		_, err := alice.Public().Seal(msg)
		return err
	})
	add("micro.sharocrypto.rsa_priv", "ns", func() error {
		_, err := alice.Priv.Open(rsaSealed)
		return err
	})

	// --- meta and cap: one metadata object, one 32-row directory view ---
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, mvk := sharocrypto.NewSigningPair()
	dir := &meta.Metadata{
		Attr: meta.Attr{Inode: 100, Kind: types.KindDir, Owner: "alice", Group: groupID, Perm: 0o755, MTime: 1},
		Keys: meta.KeySet{DEK: sharocrypto.NewSymKey(), DataSeed: sharocrypto.NewSymKey(), DVK: dvk, DSK: dsk,
			MSK: msk, MetaSeed: sharocrypto.NewSymKey()},
	}
	mek := cap.MEKFor(dir.Keys.MetaSeed, "c7")
	metaAAD := meta.MetaAAD(dir.Attr.Inode, "c7")
	metaBlob := dir.Seal(mek, msk, metaAAD)
	add("micro.meta.seal", "ns", void(func() { dir.Seal(mek, msk, metaAAD) }))
	add("micro.meta.open", "ns", func() error {
		_, err := meta.OpenMetadata(mek, mvk, metaAAD, metaBlob)
		return err
	})
	table := &meta.DirTable{}
	for i := 0; i < 32; i++ {
		if err := table.Insert(meta.DirEntry{Name: fmt.Sprintf("entry-%02d", i), Inode: types.Inode(200 + i),
			Variant: "c7", MEK: sharocrypto.NewSymKey(), MVK: mvk}); err != nil {
			return nil, err
		}
	}
	viewID := cap.ID{Class: cap.DirReadExec}
	viewBlob, err := cap.SealTableView(table, dir, viewID, viewID.Variant())
	if err != nil {
		return nil, err
	}
	tkey := cap.TableKey(dir, viewID.Variant())
	add("micro.cap.seal_table_32rows", "ns", func() error {
		_, err := cap.SealTableView(table, dir, viewID, viewID.Variant())
		return err
	})
	add("micro.cap.open_view_32rows", "ns", func() error {
		_, err := cap.OpenView(viewID.Variant(), tkey, dvk, dir.Attr.Inode, viewBlob)
		return err
	})

	// --- wire: the v2 codec hot paths, scratch reused as the loops do ---
	req := &wire.Request{Op: wire.OpPut, NS: wire.NSData, Key: "bench/key", Val: make([]byte, 4<<10), ReqID: 7}
	frame := wire.AppendRequestV2(nil, req)
	var scratch []byte
	var decoded wire.Msg
	add("micro.wire.enc_req_4k", "ns", void(func() { scratch = wire.AppendRequestV2(scratch[:0], req) }))
	add("micro.wire.dec_req_4k", "ns", func() error { return wire.DecodeV2Into(frame, &decoded) })

	// --- cache: the session's LRU ---
	lru := cache.New(1 << 20)
	cacheKeys := make([]string, 512)
	for i := range cacheKeys {
		cacheKeys[i] = fmt.Sprintf("M|m/%d/c7", i)
		lru.Put(cacheKeys[i], dir, 256)
	}
	n := 0
	add("micro.cache.get", "ns", void(func() { lru.Get(cacheKeys[n%512]); n++ }))
	add("micro.cache.put", "ns", void(func() { lru.Put(cacheKeys[n%512], dir, 256); n++ }))

	// --- stores ---
	val4k := make([]byte, 4<<10)
	storeRows(add, "micro.memstore", ssp.NewMemStore(), val4k)
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "diskstore")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	disk, err := ssp.NewDiskStore(tmp)
	if err != nil {
		return nil, err
	}
	// Page-cache numbers of this sandbox, not a device's.
	storeRows(add, "micro.diskstore", disk, val4k)

	rows := make([]microRow, 0, len(cases)+8)
	for _, c := range cases {
		row, err := timeIt(c.name, c.unit, budget, c.fn)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- pass-through differentials: one Get through each decorator over
	// the null store, minus a Get on the null store itself ---
	null := nullStore{val: make([]byte, 64)}
	base, err := timeIt("null", "ns", budget, func() error { _, err := null.Get(wire.NSMeta, "k"); return err })
	if err != nil {
		return nil, err
	}
	shardOver := func(n, r int) (*shard.Store, error) {
		bks := make([]shard.Backend, n)
		for i := range bks {
			bks[i] = shard.Backend{ID: fmt.Sprintf("s%d", i), Store: null}
		}
		return shard.New(bks, shard.Options{Replicas: r, WriteQuorum: 1})
	}
	wb := ssp.NewWriteBehind(null, ssp.WriteBehindOptions{})
	sh1, err := shardOver(1, 1)
	if err != nil {
		return nil, err
	}
	sh3, err := shardOver(3, 2)
	if err != nil {
		return nil, err
	}
	for _, d := range []struct {
		name  string
		store ssp.BlobStore
	}{
		{"wb", wb},
		{"resilience", resilience.NewStore(null, resilience.Policy{}, nil)},
		{"shard1", sh1},
		{"shard3", sh3},
	} {
		row, err := timeIt("micro.passthru."+d.name, "ns", budget, func() error {
			_, err := d.store.Get(wire.NSMeta, "k")
			return err
		})
		if err != nil {
			return nil, err
		}
		row.time -= base.time
		row.allocs -= base.allocs
		rows = append(rows, row)
	}
	if err := errors.Join(wb.Close(), sh1.Close(), sh3.Close()); err != nil {
		return nil, err
	}

	// --- rpc: a Ping through ssp.Client and ssp.Server over each link ---
	for _, l := range []struct {
		name    string
		profile *netsim.Profile // nil: loopback TCP
	}{
		{"pipe", &netsim.Unlimited},
		{"tcp", nil},
		{"wan", &wanProfile},
	} {
		row, err := pingRow("micro.rpc.null_roundtrip_"+l.name, l.profile, budget)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- keys: what committing the principals saves every process ---
	start := time.Now()
	if _, err := keys.NewUser("probe"); err != nil {
		return nil, err
	}
	rows = append(rows, microRow{name: "micro.keys.keygen", unit: "ms", calls: 1,
		time: float64(time.Since(start)) / 1e6})
	return rows, nil
}

// storeRows adds a 4 KiB put and get row for s.
func storeRows(add func(string, string, func() error), stem string, s ssp.BlobStore, val []byte) {
	n := 0
	add(stem+".put_4k", "ns", func() error {
		n++
		return s.Put(wire.NSData, fmt.Sprintf("f/%d/0/%d", n%64, n%8), val)
	})
	add(stem+".get_4k", "ns", func() error {
		n++
		_, err := s.Get(wire.NSData, fmt.Sprintf("f/%d/0/%d", n%64, n%8))
		if errors.Is(err, wire.ErrNotFound) {
			err = nil
		}
		return err
	})
}

// pingRow times ssp.Client.Ping against an ssp.Server over a netsim link
// (profile non-nil) or loopback TCP.
func pingRow(name string, profile *netsim.Profile, budget time.Duration) (_ microRow, err error) {
	var lis net.Listener
	var dial ssp.Dialer
	if profile != nil {
		sim := netsim.Listen(*profile)
		lis, dial = sim, sim.Dial
	} else {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return microRow{}, err
		}
		addr := tcp.Addr().String()
		lis, dial = tcp, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	server := ssp.NewServer(ssp.NewMemStore(), nil)
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := server.Serve(lis); err != nil {
			fmt.Fprintf(os.Stderr, "bench: micro serve: %v\n", err)
		}
	}()
	defer func() {
		err = errors.Join(err, server.Close())
		<-served
	}()
	conn, err := ssp.Dial(dial, nil)
	if err != nil {
		return microRow{}, err
	}
	defer func() { err = errors.Join(err, conn.Close()) }()
	return timeIt(name, "us", budget, conn.Ping)
}
