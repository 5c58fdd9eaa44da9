// Command sharoes-cli is a filesystem client for Sharoes: mount a user's
// view of an SSP-hosted filesystem and run one operation. It stands in
// for the FUSE mount of the paper's prototype — same operations, driven
// from the command line instead of the VFS.
//
// Usage:
//
//	sharoes-cli -key ./keys/alice.key -registry ./keys/registry.json \
//	    -ssp localhost:7070 -fsid corp <op> [args]
//
// -ssp accepts a comma-separated address list; with more than one the
// session routes every blob over the SSPs through the consistent-hash
// shard layer (-replicas copies each, write quorum -write-quorum, hedged
// reads after -hedge). The address strings themselves are the shard IDs,
// so placement depends only on the set of addresses, never their order —
// every client naming the same SSPs sees the same ring.
//
// Operations:
//
//	ls PATH            list a directory
//	tree PATH          recursive listing
//	stat PATH          show attributes
//	cat PATH           print file content
//	put PATH LOCAL     upload a local file (or - for stdin)
//	mkdir PATH PERM    create a directory
//	rm PATH            remove a file or empty directory
//	mv OLD NEW         rename
//	chmod PATH PERM    change permissions
//	chown PATH USER[:GROUP]  change ownership
//	setfacl PATH USER RIGHTS  grant a per-user ACL (rights e.g. "r", "rw")
//	getfacl PATH       list ACL grants
//	fsck PATH          verify the integrity of a subtree
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
)

// Exit codes.
const (
	exitOK    = 0
	exitFail  = 1 // the operation, the mount or the final flush failed
	exitUsage = 2 // bad flags or arguments
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, mounts the filesystem, runs
// one operation and returns the exit code. Every store and session it
// opens is closed before it returns, on failure too.
func run(args []string, stdout, stderr io.Writer) (code int) {
	flags := flag.NewFlagSet("sharoes-cli", flag.ContinueOnError)
	flags.SetOutput(stderr)
	keyPath := flags.String("key", "", "user private key file")
	regPath := flags.String("registry", "", "enterprise registry file")
	sspAddr := flags.String("ssp", "localhost:7070", "SSP address, or a comma-separated list to shard over several SSPs")
	storeDir := flags.String("storedir", "", "local disk store instead of a remote SSP")
	fsid := flags.String("fsid", "corp", "filesystem identifier")
	scheme := flags.String("scheme", "scheme2", "metadata layout: scheme1 or scheme2")
	replicas := flags.Int("replicas", 2, "shard replication factor with a multi-address -ssp (clamped to the SSP count)")
	writeQuorum := flags.Int("write-quorum", 0, "shard write quorum (0 = majority of -replicas)")
	hedge := flags.Duration("hedge", 0, "sharded read hedge threshold (0 = default, negative disables)")
	if err := flags.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "sharoes-cli:", msg)
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sharoes-cli:", err)
		return exitFail
	}

	if *keyPath == "" || *regPath == "" {
		return usage("-key and -registry are required")
	}
	if flags.NArg() == 0 {
		return usage("no operation; see -h")
	}
	if *scheme != "scheme1" && *scheme != "scheme2" {
		return usage(fmt.Sprintf("unknown -scheme %q: want scheme1 or scheme2", *scheme))
	}

	user, err := keys.LoadUser(*keyPath)
	if err != nil {
		return fail(err)
	}
	reg, err := keys.LoadRegistry(*regPath)
	if err != nil {
		return fail(err)
	}

	var store ssp.BlobStore
	if *storeDir != "" {
		ds, err := ssp.NewDiskStore(*storeDir)
		if err != nil {
			return fail(err)
		}
		store = ds
	} else {
		addrs := splitAddrs(*sspAddr)
		if len(addrs) == 0 {
			return usage("no SSP address")
		}
		var conns []*ssp.Client
		defer func() {
			// The session closes its store; the shard router does not
			// close its backends. Closing a client twice is a no-op.
			for _, cl := range conns {
				if err := cl.Close(); err != nil {
					fmt.Fprintln(stderr, "sharoes-cli: ssp close:", err)
				}
			}
		}()
		for _, a := range addrs {
			cl, err := ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", a) }, nil)
			if err != nil {
				return fail(fmt.Errorf("dial %s: %w", a, err))
			}
			conns = append(conns, cl)
		}
		if len(conns) == 1 {
			store = conns[0]
		} else {
			backends := make([]shard.Backend, len(conns))
			for i, cl := range conns {
				// The address is the shard ID: every client naming the
				// same SSP set builds the same ring, whatever the order.
				backends[i] = shard.Backend{ID: addrs[i], Store: cl}
			}
			sh, err := shard.New(backends, shard.Options{Replicas: *replicas,
				WriteQuorum: *writeQuorum, HedgeDelay: *hedge})
			if err != nil {
				return fail(err)
			}
			// Writes are synchronous; Close waits for the replies of
			// hedged-read stragglers before the connections close.
			defer func() {
				if err := sh.Close(); err != nil {
					fmt.Fprintln(stderr, "sharoes-cli: shard close:", err)
				}
			}()
			store = sh
		}
	}

	var eng layout.Engine = layout.NewScheme2(reg)
	if *scheme == "scheme1" {
		eng = layout.NewScheme1(reg)
	}
	fs, err := client.Mount(client.Config{
		Store: store, User: user, Registry: reg, Layout: eng, FSID: *fsid, CacheBytes: -1,
	})
	if err != nil {
		return fail(fmt.Errorf("mount: %w", err))
	}
	defer func() {
		// The session flushes on close; a failed flush is lost work.
		if err := fs.Close(); err != nil {
			fmt.Fprintln(stderr, "sharoes-cli: close:", err)
			code = exitFail
		}
	}()

	if err := dispatch(fs, flags.Args(), stdout); err != nil {
		return fail(err)
	}
	return exitOK
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

func parseRights(s string) (types.Triplet, error) {
	var t types.Triplet
	for _, c := range s {
		switch c {
		case 'r':
			t |= types.TripletRead
		case 'w':
			t |= types.TripletWrite
		case 'x':
			t |= types.TripletExec
		case '-':
		default:
			return 0, fmt.Errorf("bad rights %q", s)
		}
	}
	return t, nil
}

func dispatch(fs vfs.FS, args []string, stdout io.Writer) error {
	op, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) != n {
			return fmt.Errorf("%s: expected %d argument(s)", op, n)
		}
		return nil
	}
	switch op {
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		names, err := fs.ReadDir(rest[0])
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return nil
	case "tree":
		if err := need(1); err != nil {
			return err
		}
		return tree(stdout, fs, rest[0], "")
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		info, err := fs.Stat(rest[0])
		if err != nil {
			return err
		}
		printInfo(stdout, info)
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := fs.ReadFile(rest[0])
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	case "put":
		if err := need(2); err != nil {
			return err
		}
		var data []byte
		var err error
		if rest[1] == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(rest[1])
		}
		if err != nil {
			return err
		}
		return fs.WriteFile(rest[0], data, 0o644)
	case "mkdir":
		if err := need(2); err != nil {
			return err
		}
		perm, err := types.ParsePerm(rest[1])
		if err != nil {
			return err
		}
		return fs.Mkdir(rest[0], perm)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return fs.Remove(rest[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return fs.Rename(rest[0], rest[1])
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		perm, err := types.ParsePerm(rest[1])
		if err != nil {
			return err
		}
		return fs.Chmod(rest[0], perm)
	case "chown":
		if err := need(2); err != nil {
			return err
		}
		owner, group, _ := strings.Cut(rest[1], ":")
		return fs.Chown(rest[0], types.UserID(owner), types.GroupID(group))
	case "setfacl":
		if err := need(3); err != nil {
			return err
		}
		rights, err := parseRights(rest[2])
		if err != nil {
			return err
		}
		return fs.SetACL(rest[0], types.UserID(rest[1]), rights)
	case "getfacl":
		if err := need(1); err != nil {
			return err
		}
		acl, err := fs.GetACL(rest[0])
		if err != nil {
			return err
		}
		for _, e := range acl {
			fmt.Fprintf(stdout, "user:%s:%s\n", e.User, e.Rights)
		}
		return nil
	case "fsck":
		if err := need(1); err != nil {
			return err
		}
		sess, ok := fs.(*client.Session)
		if !ok {
			return fmt.Errorf("fsck needs a Sharoes session")
		}
		rep, err := sess.Verify(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		for _, p := range rep.Problems {
			fmt.Fprintf(stdout, "PROBLEM %s: %v\n", p.Path, p.Err)
		}
		if !rep.OK() {
			return fmt.Errorf("%d integrity problem(s)", len(rep.Problems))
		}
		return nil
	default:
		return fmt.Errorf("unknown operation %q", op)
	}
}

func printInfo(w io.Writer, info vfs.Info) {
	kind := "-"
	if info.IsDir() {
		kind = "d"
	}
	fmt.Fprintf(w, "%s%s %8d %s:%s %s %s\n",
		kind, info.Perm, info.Size, info.Owner, info.Group,
		info.MTime.Format("2006-01-02 15:04:05"), info.Name)
}

func tree(w io.Writer, fs vfs.FS, path, indent string) error {
	info, err := fs.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s", indent, info.Name)
	if info.IsDir() {
		fmt.Fprintln(w, "/")
		names, err := fs.ReadDir(path)
		if err != nil {
			fmt.Fprintf(w, "%s  (unreadable: %v)\n", indent, err)
			return nil
		}
		for _, n := range names {
			child := path + "/" + n
			if path == "/" {
				child = "/" + n
			}
			if err := tree(w, fs, child, indent+"  "); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Fprintf(w, "  (%d bytes)\n", info.Size)
	return nil
}
