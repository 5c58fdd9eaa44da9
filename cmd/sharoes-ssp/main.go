// Command sharoes-ssp runs the SSP data-serving tool: the untrusted
// storage-provider side of Sharoes. It stores opaque encrypted blobs and
// serves them over TCP; it performs no computation on the data and holds
// no keys (paper §IV).
//
// Usage:
//
//	sharoes-ssp [-addr :7070] [-store mem|disk] [-dir ./ssp-data]
//	            [-debug-addr :7071] [-grace 10s]
//
// -addr accepts a comma-separated list; each address then serves its own
// independent store from this one process (disk stores split into s0, s1,
// ... subdirectories of -dir). That is the local testbed shape for the
// sharded client: point sharoes-cli's -ssp at the same list and it routes
// over them as separate shards.
//
// On SIGINT or SIGTERM the server drains gracefully: it stops accepting,
// lets in-flight requests finish (bounded by -grace), then writes a final
// metrics snapshot to stderr and exits 0. Bad flags exit 2; a store,
// listener or serve failure exits 1. With -debug-addr set, a debug HTTP
// server exposes the live metrics registry as JSON at /metrics plus the
// standard net/http/pprof handlers under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
)

const (
	exitOK    = 0
	exitFail  = 1 // a store, a listener or a server failed
	exitUsage = 2 // bad flags or arguments
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, serves every address until
// ctx is done or a server fails, drains, and returns the exit code. Every
// listener and server it opens is closed before it returns, on failure
// too.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sharoes-ssp", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":7070", "listen address, or a comma-separated list to serve one independent shard store per address")
	storeKind := flags.String("store", "mem", "storage backend: mem or disk")
	dir := flags.String("dir", "./ssp-data", "data directory for -store disk")
	debugAddr := flags.String("debug-addr", "", "optional debug HTTP address serving /metrics, /sever and /debug/pprof/")
	grace := flags.Duration("grace", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	faultSpec := flags.String("fault", "", "arm server-side fault rules for resilience testing, comma-separated idx:mode[:arg] — modes: writeerr, slow:<dur>, drop, flap:<n> (e.g. 0:writeerr,1:slow:5ms,2:flap:25)")
	if err := flags.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "sharoes-ssp:", msg)
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sharoes-ssp:", err)
		return exitFail
	}
	if flags.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected argument %q", flags.Arg(0)))
	}
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		return usage("no listen address")
	}
	if *storeKind != "mem" && *storeKind != "disk" {
		return usage(fmt.Sprintf("unknown -store %q: want mem or disk", *storeKind))
	}
	faults, err := parseFaults(*faultSpec, len(addrs))
	if err != nil {
		return usage(err.Error())
	}

	// newStore builds the i'th address's independent backing store. Disk
	// stores shard into subdirectories so two listeners never share state
	// — the whole point of pointing a sharded client at this process.
	newStore := func(i int) (ssp.BlobStore, error) {
		if *storeKind == "mem" {
			return ssp.NewMemStore(), nil
		}
		d := *dir
		if len(addrs) > 1 {
			d = filepath.Join(d, fmt.Sprintf("s%d", i))
		}
		return ssp.NewDiskStore(d)
	}

	reg := obs.NewRegistry()
	var servers []*ssp.Server
	var listeners []net.Listener
	// failOpen closes the listeners opened so far, for a set-up failure.
	failOpen := func(err error) int {
		for _, lis := range listeners {
			err = errors.Join(err, lis.Close())
		}
		return fail(err)
	}
	for i, a := range addrs {
		store, err := newStore(i)
		if err != nil {
			return failOpen(err)
		}
		var fstore *ssp.FaultStore
		if len(faults[i]) > 0 {
			fstore = ssp.NewFaultStore(store)
			for _, r := range faults[i] {
				fstore.AddRule(r)
			}
			store = fstore
		}
		lis, err := net.Listen("tcp", a)
		if err != nil {
			return failOpen(fmt.Errorf("listen %s: %w", a, err))
		}
		server := ssp.NewServer(store, log.New(stderr, fmt.Sprintf("ssp[%d]: ", i), log.LstdFlags))
		server.Observe(reg, nil)
		if fstore != nil {
			// Connection fault modes sever this server's live conns; the
			// listener stays up so self-healing clients can redial.
			fstore.OnSever(func() { server.SeverConns() })
			fmt.Fprintf(stdout, "sharoes-ssp: shard %d armed with %d fault rule(s)\n", i, len(faults[i]))
		}
		servers, listeners = append(servers, server), append(listeners, lis)
		fmt.Fprintf(stdout, "sharoes-ssp: serving %s store on %s\n", *storeKind, lis.Addr())
	}

	var debug *http.Server
	debugDone := make(chan struct{})
	if *debugAddr != "" {
		debug = debugServer(*debugAddr, reg, servers)
		go func() {
			defer close(debugDone)
			if err := debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "sharoes-ssp: debug server: %v\n", err)
			}
		}()
	} else {
		close(debugDone)
	}

	errc := make(chan error, len(servers))
	for i := range servers {
		go func(i int) { errc <- servers[i].Serve(listeners[i]) }(i)
	}
	code, running := exitOK, len(servers)
	select {
	case <-ctx.Done():
		fmt.Fprintf(stderr, "sharoes-ssp: draining (grace %v)\n", *grace)
	case err := <-errc:
		// A server that stops on its own failed: it returns nil only
		// once shut down.
		running--
		code = fail(fmt.Errorf("serve: %w", err))
	}
	for _, server := range servers {
		if err := server.Shutdown(*grace); err != nil {
			code = fail(fmt.Errorf("shutdown: %w", err))
		}
	}
	for ; running > 0; running-- {
		if err := <-errc; err != nil {
			code = fail(fmt.Errorf("serve: %w", err))
		}
	}
	if debug != nil {
		if err := debug.Close(); err != nil {
			code = fail(fmt.Errorf("debug server: %w", err))
		}
	}
	<-debugDone
	fmt.Fprintln(stderr, "sharoes-ssp: final metrics snapshot:")
	if err := reg.WriteJSON(stderr); err != nil {
		code = fail(fmt.Errorf("metrics flush: %w", err))
	}
	fmt.Fprintln(stderr)
	return code
}

// splitAddrs parses a comma-separated address list, dropping empty
// entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseFaults parses the -fault flag into per-shard rule lists.
func parseFaults(spec string, shards int) ([][]ssp.FaultRule, error) {
	out := make([][]ssp.FaultRule, shards)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bad fault %q (want idx:mode[:arg])", part)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil || idx < 0 || idx >= shards {
			return nil, fmt.Errorf("bad fault shard index %q (%d shards)", fields[0], shards)
		}
		arg := ""
		if len(fields) == 3 {
			arg = fields[2]
		}
		var rule ssp.FaultRule
		switch fields[1] {
		case "writeerr":
			rule.Mode = ssp.FaultWriteErr
		case "slow":
			rule.Mode = ssp.FaultSlow
			if rule.Delay, err = time.ParseDuration(arg); err != nil {
				return nil, fmt.Errorf("bad slow delay %q: %w", arg, err)
			}
		case "drop":
			rule.Mode = ssp.FaultConnDrop
		case "flap":
			rule.Mode = ssp.FaultFlap
			if arg != "" {
				if rule.Every, err = strconv.Atoi(arg); err != nil || rule.Every < 1 {
					return nil, fmt.Errorf("bad flap period %q", arg)
				}
			}
		default:
			return nil, fmt.Errorf("unknown fault mode %q", fields[1])
		}
		out[idx] = append(out[idx], rule)
	}
	return out, nil
}

// debugServer is the optional operator endpoint. It must never be
// exposed on the service address: pprof handlers are for trusted
// operators only.
func debugServer(addr string, reg *obs.Registry, servers []*ssp.Server) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/sever", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		total := 0
		for _, s := range servers {
			total += s.SeverConns()
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"severed\": %d}\n", total)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}
