package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	//sharoes-vet:allow rawrand seeded generator shapes benchmark traffic only (payloads, op order, sizes); never key material
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/vfs"
)

// sizing holds the per-round op counts. Shapes (ratios, file sizes, link,
// stack) never change with it; only counts do.
type sizing struct {
	clDirs, clFilesPerDir int // createlist_wan: directories and files per directory per round
	pmPool, pmTx          int // postmark_tcp: pool files and transactions per session per round
	bulkFiles, bulkBytes  int // bulk_tcp: files per round and bytes per file
	shPool, shTx          int // shard_wan: pool files and transactions per round
}

// fullSizing keeps one round near 1.5–2 s on a 2-core box so that a run
// of a few tens of seconds holds at least eight of them. The paper's
// shapes are kept: 20 files a directory for Create-and-List, Postmark's
// 500 B–9.77 KB files in 25 subdirectories.
var fullSizing = sizing{
	clDirs: 12, clFilesPerDir: 20,
	pmPool: 1000, pmTx: 800,
	bulkFiles: 32, bulkBytes: 1 << 20,
	shPool: 200, shTx: 300,
}

const (
	pmMinSize = 500
	pmMaxSize = 10000 // 9.77 KB
	pmSubdirs = 25
)

type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opStat
	opReadDir
	opWriteFile
	opAppend
	opReadFile
	opRemove
	numOps
)

var opNames = [numOps]string{"mkdir", "create", "stat", "readdir", "writefile", "append", "readfile", "remove"}

// op is one filesystem call: its input, what came back and how long the
// caller waited. Results are only compared with the reference model after
// the round's clock has stopped.
type op struct {
	kind  opKind
	path  string
	data  []byte   // payload written, or content read back
	names []string // ReadDir result
	info  vfs.Info // Stat result
	err   error
	ns    int64
}

// driver issues one session's operations and keeps the log.
type driver struct {
	fs  vfs.FS
	rec *recorder      // the session's fs spans; nil when untraced
	cur *atomic.Uint64 // where the session's probe finds the open fs span
	log []op
}

func (d *driver) do(kind opKind, path string, data []byte) *op {
	o := op{kind: kind, path: path, data: data}
	var sp int
	if d.rec != nil {
		var id uint64
		sp, id = d.rec.begin(opNames[kind], 0)
		d.cur.Store(id)
	}
	start := time.Now()
	switch kind {
	case opMkdir:
		o.err = d.fs.Mkdir(path, 0o755)
	case opCreate:
		o.err = d.fs.Create(path, 0o644)
	case opStat:
		o.info, o.err = d.fs.Stat(path)
	case opReadDir:
		o.names, o.err = d.fs.ReadDir(path)
	case opWriteFile:
		o.err = d.fs.WriteFile(path, data, 0o644)
	case opAppend:
		o.err = d.fs.Append(path, data)
	case opReadFile:
		o.data, o.err = d.fs.ReadFile(path)
	case opRemove:
		o.err = d.fs.Remove(path)
	}
	o.ns = int64(time.Since(start))
	if d.rec != nil {
		d.cur.Store(0)
		d.rec.end(sp)
	}
	d.log = append(d.log, o)
	return &d.log[len(d.log)-1]
}

// window is one timed interval of a round, in nanoseconds since the
// run's epoch.
type window struct {
	name       string
	start, end int64
	userBytes  int64    // file bytes moved by the phase (bulk only)
	delta      counters // what the layers counted between start and end
}

// open starts a timed window; the counter snapshot is taken before the
// clock starts and, in close, after it stops.
func (r *trial) open(name string) window {
	w := window{name: name, delta: r.snap()}
	w.start = r.now()
	return w
}

func (r *trial) close(w *window) {
	w.end = r.now()
	w.delta = r.snap().sub(w.delta)
}

// workloadDef is one workload: a stack shape and the traffic driven
// through it.
type workloadDef struct {
	name  string
	why   string
	spec  func(sz sizing) stackSpec
	setup func(r *trial) error                    // untimed preload, part of set-up
	round func(r *trial, n int) ([]window, error) // one round on fresh paths
	// writeOp and readOp name the op kinds behind write_p50_ms and
	// read_p50_ms on this workload.
	writeOp, readOp opKind
}

var workloads = []*workloadDef{
	{
		name: "createlist_wan",
		why:  "RTT-bound Create-and-List (paper Fig. 9) over the calibrated WAN: only round trips per op move it; crypto and codec work is under a tenth of the wall, so CPU optimisations predict no change.",
		spec: func(sizing) stackSpec {
			return stackSpec{wan: true, backends: 1, sessions: 1, cacheBytes: -1}
		},
		setup:   func(*trial) error { return nil },
		round:   createListRound,
		writeOp: opCreate, readOp: opStat,
	},
	{
		name: "postmark_tcp",
		why:  "CPU-bound Postmark (paper Fig. 10): 2 sessions, each on its own loopback TCP connection, no write-behind (wb.* read 0), cache 1/4 of the data. Per-message seal/open, codec and cache churn move it.",
		spec: func(sz sizing) stackSpec {
			return stackSpec{backends: 1, sessions: 2, cacheBytes: pmCacheBytes(sz.pmPool)}
		},
		setup:   func(r *trial) error { return postmarkSetup(r, r.sz.pmPool) },
		round:   func(r *trial, n int) ([]window, error) { return postmarkRound(r, r.sz.pmTx) },
		writeOp: opAppend, readOp: opReadFile,
	},
	{
		name: "bulk_tcp",
		why:  "1 MiB files written then read cold over loopback TCP, no cache, no write-behind: the layers used per byte (block AES-GCM, signatures, BatchPut framing, buffer arenas, borrowed reads), not per message.",
		spec: func(sizing) stackSpec {
			return stackSpec{backends: 1, sessions: 1, cacheBytes: 0}
		},
		setup:   func(*trial) error { return nil },
		round:   bulkRound,
		writeOp: opWriteFile, readOp: opReadFile,
	},
	{
		name: "shard_wan",
		why:  "The Postmark mix through the layers postmark_tcp bypasses (3-SSP router R=2 W=1, hedged reads, lane flushes, retry and redial wrappers) on the WAN: a simplified resilience mechanism shows only here.",
		spec: func(sz sizing) stackSpec {
			return stackSpec{wan: true, backends: 3, writeBehind: true, selfHeal: true, sessions: 1, cacheBytes: pmCacheBytes(sz.shPool)}
		},
		setup:   func(r *trial) error { return postmarkSetup(r, r.sz.shPool) },
		round:   func(r *trial, n int) ([]window, error) { return postmarkRound(r, r.sz.shTx) },
		writeOp: opAppend, readOp: opReadFile,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pmCacheBytes is a quarter of one session's Postmark data set.
func pmCacheBytes(pool int) int64 {
	return int64(pool) * (pmMinSize + pmMaxSize) / 2 / 4
}

// trial is one built stack being driven by one workload.
type trial struct {
	def     *workloadDef
	sz      sizing
	st      *stack
	rng     *rand.Rand
	model   *refmodel.Model
	drivers []*driver
	pools   []*pool // Postmark state, one per session

	// epoch is the tracer's when there is one, so windows and spans are
	// on one clock.
	epoch time.Time

	attempted, failed int
	firstFailure      string
}

func (r *trial) now() int64 { return int64(time.Since(r.epoch)) }

func (r *trial) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// newTrial builds the workload's stack and performs its set-up.
func newTrial(def *workloadDef, sz sizing, who *principals, seed int64, tr *tracer) (*trial, error) {
	st, err := buildStack(def.spec(sz), who, tr)
	if err != nil {
		return nil, err
	}
	members := refmodel.Memberships{}
	members.AddMember(groupID, "alice")
	members.AddMember(groupID, "bob")
	r := &trial{def: def, sz: sz, st: st, rng: rand.New(rand.NewSource(seed)),
		model: refmodel.New("alice", groupID, 0o755, members), epoch: time.Now()}
	if tr != nil {
		r.epoch = tr.epoch
	}
	for _, s := range st.sessions {
		d := &driver{fs: s.fs, cur: s.op}
		if tr != nil {
			d.rec = tr.recorder(layerFS)
		}
		r.drivers = append(r.drivers, d)
	}
	if err := def.setup(r); err != nil {
		return nil, errors.Join(fmt.Errorf("%s set-up: %w", def.name, err), st.Close())
	}
	return r, nil
}

// parallel runs f once per session, concurrently, and waits.
func (r *trial) parallel(f func(i int, d *driver)) {
	var wg sync.WaitGroup
	for i, d := range r.drivers {
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			f(i, d)
		}(i, d)
	}
	wg.Wait()
}

// settle replays every driver's log into the reference model, counting
// errors and mismatches, and clears the logs. It runs with the clock
// stopped. Sessions work in disjoint subtrees, so replaying one log after
// the other is equivalent to the interleaving that happened. Set-up,
// warm-up and housekeeping ops are checked too but, not being measured,
// do not count as attempted.
func (r *trial) settle(measured bool) {
	const alice = "alice"
	for _, d := range r.drivers {
		for i := range d.log {
			o := &d.log[i]
			if measured {
				r.attempted++
			}
			if o.err != nil {
				r.fail("%s %s: %v", opNames[o.kind], o.path, o.err)
				continue
			}
			var merr error
			switch o.kind {
			case opMkdir:
				merr = r.model.Mkdir(alice, o.path, 0o755)
			case opCreate:
				merr = r.model.Create(alice, o.path, 0o644)
			case opWriteFile:
				merr = r.model.WriteFile(alice, o.path, o.data, 0o644)
			case opAppend:
				merr = r.model.Append(alice, o.path, o.data)
			case opRemove:
				merr = r.model.Remove(alice, o.path)
			case opStat:
				want, err := r.model.Stat(alice, o.path)
				if merr = err; err == nil && (want.Kind != o.info.Kind || want.Size != o.info.Size) {
					r.fail("stat %s: got kind %v size %d, model has kind %v size %d",
						o.path, o.info.Kind, o.info.Size, want.Kind, want.Size)
				}
			case opReadDir:
				want, err := r.model.ReadDir(alice, o.path)
				got := append([]string(nil), o.names...)
				sort.Strings(got)
				if merr = err; err == nil && fmt.Sprint(got) != fmt.Sprint(want) {
					r.fail("readdir %s: %d names, model has %d", o.path, len(got), len(want))
				}
			case opReadFile:
				want, err := r.model.ReadFile(alice, o.path)
				if merr = err; err == nil && !bytes.Equal(want, o.data) {
					r.fail("readfile %s: %d bytes differ from the model's %d", o.path, len(o.data), len(want))
				}
			}
			if merr != nil {
				r.fail("model rejects %s %s: %v", opNames[o.kind], o.path, merr)
			}
		}
		d.log = d.log[:0]
	}
}

// drain takes the per-op latencies out of the logs (before settle clears
// them) into samples, keyed by op kind.
func (r *trial) drain(samples *[numOps][]int64) {
	for _, d := range r.drivers {
		for i := range d.log {
			samples[d.log[i].kind] = append(samples[d.log[i].kind], d.log[i].ns)
		}
	}
}

// --- createlist_wan ---------------------------------------------------

// createListRound is the paper's Create-and-List on a fresh subtree:
// mkdir the directories, create empty files, drop the cache (the paper's
// phases are separate processes), then "ls -lR" — ReadDir and Stat of
// every entry.
func createListRound(r *trial, n int) ([]window, error) {
	d := r.drivers[0]
	root := fmt.Sprintf("/cl%04d", n)
	// Names carry a seeded tag: the only input the seed can vary here.
	dirs := make([]string, r.sz.clDirs)
	files := make([][]string, r.sz.clDirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/d%02d-%04x", root, i, r.rng.Intn(1<<16))
		for j := 0; j < r.sz.clFilesPerDir; j++ {
			files[i] = append(files[i], fmt.Sprintf("%s/f%03d-%04x", dirs[i], j, r.rng.Intn(1<<16)))
		}
	}

	w := r.open("round")
	d.do(opMkdir, root, nil)
	for _, dir := range dirs {
		d.do(opMkdir, dir, nil)
	}
	for j := 0; j < r.sz.clFilesPerDir; j++ {
		for i := range dirs {
			d.do(opCreate, files[i][j], nil)
		}
	}
	d.fs.Refresh()
	d.do(opStat, root, nil)
	for _, dn := range d.do(opReadDir, root, nil).names {
		dp := root + "/" + dn
		d.do(opStat, dp, nil)
		for _, fn := range d.do(opReadDir, dp, nil).names {
			d.do(opStat, dp+"/"+fn, nil)
		}
	}
	r.close(&w)
	return []window{w}, nil
}

// --- postmark_tcp and shard_wan ----------------------------------------

// pool is one session's Postmark file set.
type pool struct {
	root   string
	live   []string
	nextID int
	rng    *rand.Rand
}

func (p *pool) newPath() string {
	path := fmt.Sprintf("%s/s%02d/pm%06d", p.root, p.nextID%pmSubdirs, p.nextID)
	p.nextID++
	return path
}

// sizes returns n file sizes spread evenly over Postmark's range in
// seeded order: the byte volume of every round is then the same for every
// seed, and only which file gets which size varies.
func (p *pool) sizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = pmMinSize + (pmMaxSize-pmMinSize)*(2*i+1)/(2*n)
	}
	p.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (p *pool) payload(n int) []byte {
	b := make([]byte, n)
	p.rng.Read(b) //sharoes-vet:allow errdrop math/rand.Rand.Read never fails
	return b
}

// postmarkSetup builds each session's subdirectories and file pool
// through the stack and lands them at the SSP.
func postmarkSetup(r *trial, poolFiles int) error {
	r.pools = make([]*pool, len(r.drivers))
	for i := range r.pools {
		r.pools[i] = &pool{root: fmt.Sprintf("/pm%d", i), rng: rand.New(rand.NewSource(r.rng.Int63()))}
	}
	// Sessions are not coherent with each other: two of them adding their
	// root to "/" at once would lose one update. The first makes every
	// root; the rest then look again.
	for _, p := range r.pools {
		r.drivers[0].do(opMkdir, p.root, nil)
	}
	if err := r.st.barrier(); err != nil {
		return err
	}
	r.parallel(func(i int, d *driver) {
		p := r.pools[i]
		d.fs.Refresh()
		for s := 0; s < pmSubdirs; s++ {
			d.do(opMkdir, fmt.Sprintf("%s/s%02d", p.root, s), nil)
		}
		for _, size := range p.sizes(poolFiles) {
			path := p.newPath()
			d.do(opWriteFile, path, p.payload(size))
			p.live = append(p.live, path)
		}
	})
	if err := r.st.barrier(); err != nil {
		return err
	}
	r.settle(false)
	if r.failed > 0 {
		return fmt.Errorf("pool preload: %s", r.firstFailure)
	}
	return nil
}

// postmarkRound runs tx transactions per session: exactly a quarter each
// of read, append, create and delete, in seeded order against seeded
// victims. The clock stops only after the write-behind barrier.
func postmarkRound(r *trial, tx int) ([]window, error) {
	plans := make([][]op, len(r.drivers))
	for i, p := range r.pools {
		kinds := make([]opKind, tx)
		for k := range kinds {
			kinds[k] = [...]opKind{opReadFile, opAppend, opWriteFile, opRemove}[k%4]
		}
		p.rng.Shuffle(tx, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		sizes := p.sizes((tx + 3) / 4)
		for _, kind := range kinds {
			o := op{kind: kind}
			switch kind {
			case opReadFile:
				o.path = p.live[p.rng.Intn(len(p.live))]
			case opAppend:
				o.path, o.data = p.live[p.rng.Intn(len(p.live))], p.payload(pmMinSize)
			case opWriteFile:
				o.path, o.data = p.newPath(), p.payload(sizes[0])
				sizes = sizes[1:]
				p.live = append(p.live, o.path)
			case opRemove:
				v := p.rng.Intn(len(p.live))
				o.path = p.live[v]
				p.live[v] = p.live[len(p.live)-1]
				p.live = p.live[:len(p.live)-1]
			}
			plans[i] = append(plans[i], o)
		}
	}

	w := r.open("round")
	r.parallel(func(i int, d *driver) {
		for _, o := range plans[i] {
			d.do(o.kind, o.path, o.data)
		}
	})
	err := r.st.barrier()
	r.close(&w)
	return []window{w}, err
}

// --- bulk_tcp ----------------------------------------------------------

// bulkRound writes large files into a fresh directory, drops the
// (disabled) cache, and reads them all back. The two phases are timed
// separately so a read gain paid for by writes shows. The previous
// round's files are removed off the clock to bound memory.
func bulkRound(r *trial, n int) ([]window, error) {
	d := r.drivers[0]
	dir := fmt.Sprintf("/bulk%04d", n)
	paths := make([]string, r.sz.bulkFiles)
	payloads := make([][]byte, r.sz.bulkFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/blob%03d", dir, i)
		payloads[i] = make([]byte, r.sz.bulkBytes)
		r.rng.Read(payloads[i]) //sharoes-vet:allow errdrop math/rand.Rand.Read never fails
	}
	if n > 0 {
		old := fmt.Sprintf("/bulk%04d", n-1)
		for i := range paths {
			d.do(opRemove, fmt.Sprintf("%s/blob%03d", old, i), nil)
		}
		d.do(opRemove, old, nil)
	}
	d.do(opMkdir, dir, nil)
	r.settle(false)

	total := int64(r.sz.bulkFiles) * int64(r.sz.bulkBytes)
	write := r.open("write")
	for i, p := range paths {
		d.do(opWriteFile, p, payloads[i])
	}
	r.close(&write)
	d.fs.Refresh()
	read := r.open("read")
	for _, p := range paths {
		d.do(opReadFile, p, nil)
	}
	r.close(&read)
	write.userBytes, read.userBytes = total, total
	return []window{write, read}, nil
}

// --- output verification -----------------------------------------------

// verify mounts a cold session for bob — a group-class reader, the
// paper's sharing path — straight on the SSPs' stores and compares every
// name, size and SHA-256 with the reference model. It returns the live
// user bytes (file contents plus entry names).
func (r *trial) verify() (userBytes int64, err error) {
	direct, closeDirect, err := r.st.direct()
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := closeDirect(); err == nil {
			err = cerr
		}
	}()
	bob, err := r.st.mount(direct, "bob", nil, 0)
	if err != nil {
		return 0, fmt.Errorf("mount bob: %w", err)
	}
	var walk func(dir string)
	walk = func(dir string) {
		want, merr := r.model.ReadDir("bob", dir)
		got, err := bob.ReadDir(dir)
		r.attempted++
		if merr != nil || err != nil {
			r.fail("verify readdir %s: stack %v, model %v", dir, err, merr)
			return
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			r.fail("verify readdir %s: stack lists %d names, model %d", dir, len(got), len(want))
			return
		}
		for _, name := range want {
			path := dir + "/" + name
			if dir == "/" {
				path = "/" + name
			}
			userBytes += int64(len(name))
			info, merr := r.model.Stat("bob", path)
			if merr != nil {
				r.fail("verify model stat %s: %v", path, merr)
				continue
			}
			if info.IsDir() {
				walk(path)
				continue
			}
			r.attempted++
			wantData, merr := r.model.ReadFile("bob", path)
			gotInfo, serr := bob.Stat(path)
			gotData, rerr := bob.ReadFile(path)
			switch {
			case merr != nil || serr != nil || rerr != nil:
				r.fail("verify %s: stat %v, read %v, model %v", path, serr, rerr, merr)
			case gotInfo.Size != uint64(len(wantData)):
				r.fail("verify %s: size %d, model %d", path, gotInfo.Size, len(wantData))
			case sha256.Sum256(gotData) != sha256.Sum256(wantData):
				r.fail("verify %s: content hash differs from the model", path)
			}
			userBytes += int64(len(wantData))
		}
	}
	walk("/")
	return userBytes, nil
}
