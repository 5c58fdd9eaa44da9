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
	"log"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharoes-cli: ")
	keyPath := flag.String("key", "", "user private key file")
	regPath := flag.String("registry", "", "enterprise registry file")
	sspAddr := flag.String("ssp", "localhost:7070", "SSP address, or a comma-separated list to shard over several SSPs")
	storeDir := flag.String("storedir", "", "local disk store instead of a remote SSP")
	fsid := flag.String("fsid", "corp", "filesystem identifier")
	scheme := flag.String("scheme", "scheme2", "metadata layout: scheme1 or scheme2")
	replicas := flag.Int("replicas", 2, "shard replication factor with a multi-address -ssp (clamped to the SSP count)")
	writeQuorum := flag.Int("write-quorum", 0, "shard write quorum (0 = majority of -replicas)")
	hedge := flag.Duration("hedge", 0, "sharded read hedge threshold (0 = default, negative disables)")
	flag.Parse()

	if *keyPath == "" || *regPath == "" {
		log.Fatal("-key and -registry are required")
	}
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("no operation; see -h")
	}

	user, err := keys.LoadUser(*keyPath)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := keys.LoadRegistry(*regPath)
	if err != nil {
		log.Fatal(err)
	}

	var store ssp.BlobStore
	if *storeDir != "" {
		ds, err := ssp.NewDiskStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		store = ds
	} else {
		addrs := splitAddrs(*sspAddr)
		if len(addrs) == 0 {
			log.Fatal("no SSP address")
		}
		dial := func(addr string) (*ssp.Client, error) {
			return ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil)
		}
		if len(addrs) == 1 {
			cl, err := dial(addrs[0])
			if err != nil {
				log.Fatal(err)
			}
			store = cl
		} else {
			backends := make([]shard.Backend, len(addrs))
			for i, a := range addrs {
				cl, err := dial(a)
				if err != nil {
					log.Fatalf("dial %s: %v", a, err)
				}
				// The address is the shard ID: every client naming the
				// same SSP set builds the same ring, whatever the order.
				backends[i] = shard.Backend{ID: a, Store: cl}
			}
			sh, err := shard.New(backends, shard.Options{Replicas: *replicas,
				WriteQuorum: *writeQuorum, HedgeDelay: *hedge})
			if err != nil {
				log.Fatal(err)
			}
			// Writes are synchronous; Close waits for the replies of
			// hedged-read stragglers before the process exits.
			defer func() {
				if err := sh.Close(); err != nil {
					log.Printf("shard close: %v", err)
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
		log.Fatalf("mount: %v", err)
	}
	defer func() {
		// The session flushes on close; a failed flush is lost work.
		if err := fs.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()

	if err := dispatch(fs, args); err != nil {
		log.Fatal(err)
	}
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

func dispatch(fs vfs.FS, args []string) error {
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
			fmt.Println(n)
		}
		return nil
	case "tree":
		if err := need(1); err != nil {
			return err
		}
		return tree(fs, rest[0], "")
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		info, err := fs.Stat(rest[0])
		if err != nil {
			return err
		}
		printInfo(info)
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := fs.ReadFile(rest[0])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
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
			fmt.Printf("user:%s:%s\n", e.User, e.Rights)
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
		fmt.Println(rep)
		for _, p := range rep.Problems {
			fmt.Printf("PROBLEM %s: %v\n", p.Path, p.Err)
		}
		if !rep.OK() {
			return fmt.Errorf("%d integrity problem(s)", len(rep.Problems))
		}
		return nil
	default:
		return fmt.Errorf("unknown operation %q", op)
	}
}

func printInfo(info vfs.Info) {
	kind := "-"
	if info.IsDir() {
		kind = "d"
	}
	fmt.Printf("%s%s %8d %s:%s %s %s\n",
		kind, info.Perm, info.Size, info.Owner, info.Group,
		info.MTime.Format("2006-01-02 15:04:05"), info.Name)
}

func tree(fs vfs.FS, path, indent string) error {
	info, err := fs.Stat(path)
	if err != nil {
		return err
	}
	name := info.Name
	fmt.Printf("%s%s", indent, name)
	if info.IsDir() {
		fmt.Println("/")
		names, err := fs.ReadDir(path)
		if err != nil {
			fmt.Printf("%s  (unreadable: %v)\n", indent, err)
			return nil
		}
		for _, n := range names {
			child := path + "/" + n
			if path == "/" {
				child = "/" + n
			}
			if err := tree(fs, child, indent+"  "); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Printf("  (%d bytes)\n", info.Size)
	return nil
}
