// Command sharoes-migrate is the Sharoes migration tool (paper §IV): it
// creates the cryptographic infrastructure and transitions local storage
// to the outsourced model.
//
// Set up an enterprise (generates user keys and the public registry):
//
//	sharoes-migrate setup -keydir ./keys -users alice,bob,carol \
//	    -groups eng=alice,bob
//
// Migrate a local directory to an SSP:
//
//	sharoes-migrate run -keydir ./keys -ssp localhost:7070 \
//	    -fsid corp -owner alice -group eng -src /path/to/data
//
// Omit -src to bootstrap an empty filesystem.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
)

// Exit codes.
const (
	exitOK    = 0
	exitFail  = 1 // key generation, the store or the migration failed
	exitUsage = 2 // bad subcommand, flags or arguments
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it runs one subcommand and returns the exit
// code. Every connection it opens is closed before it returns, on failure
// too.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: sharoes-migrate setup|run [flags]")
		return exitUsage
	}
	switch args[0] {
	case "setup":
		return setup(args[1:], stdout, stderr)
	case "run":
		return migrateRun(args[1:], stdout, stderr)
	default:
		fmt.Fprintln(stderr, "usage: sharoes-migrate setup|run [flags]")
		return exitUsage
	}
}

// failer returns the usage and failure reporters of one subcommand.
func failer(stderr io.Writer, sub string) (usage func(string) int, fail func(error) int) {
	usage = func(msg string) int {
		fmt.Fprintf(stderr, "sharoes-migrate %s: %s\n", sub, msg)
		return exitUsage
	}
	fail = func(err error) int {
		fmt.Fprintf(stderr, "sharoes-migrate %s: %v\n", sub, err)
		return exitFail
	}
	return usage, fail
}

// setup generates every user's and group's key pair and the public
// registry into -keydir.
func setup(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("setup", flag.ContinueOnError)
	flags.SetOutput(stderr)
	keydir := flags.String("keydir", "./keys", "directory for key material")
	users := flags.String("users", "", "comma-separated user IDs")
	groups := flags.String("groups", "", "groups as name=member,member;name=...")
	if err := flags.Parse(args); err != nil {
		return exitUsage
	}
	usage, fail := failer(stderr, "setup")
	if *users == "" {
		return usage("-users is required")
	}
	var specs [][2]string
	if *groups != "" {
		for _, spec := range strings.Split(*groups, ";") {
			name, members, ok := strings.Cut(spec, "=")
			if !ok {
				return usage(fmt.Sprintf("bad group spec %q: want name=member,member", spec))
			}
			specs = append(specs, [2]string{name, members})
		}
	}

	if err := os.MkdirAll(*keydir, 0o700); err != nil {
		return fail(err)
	}
	reg := keys.NewRegistry()
	for _, id := range strings.Split(*users, ",") {
		id = strings.TrimSpace(id)
		u, err := keys.NewUser(types.UserID(id))
		if err != nil {
			return fail(err)
		}
		reg.AddUser(u.ID, u.Public())
		path := filepath.Join(*keydir, id+".key")
		if err := u.Save(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "generated %s\n", path)
	}
	for _, spec := range specs {
		name, members := spec[0], spec[1]
		g, err := keys.NewGroup(types.GroupID(name))
		if err != nil {
			return fail(err)
		}
		reg.AddGroup(g.ID, g.Priv.Public())
		for _, m := range strings.Split(members, ",") {
			reg.AddMember(g.ID, types.UserID(strings.TrimSpace(m)))
		}
		path := filepath.Join(*keydir, "group-"+name+".key")
		if err := (&keys.User{ID: types.UserID("group:" + name), Priv: g.Priv}).Save(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "generated %s (members: %s)\n", path, members)
	}
	regPath := filepath.Join(*keydir, "registry.json")
	if err := reg.Save(regPath); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", regPath)
	return exitOK
}

// migrateRun publishes the group keys in-band, then bootstraps an empty
// filesystem or migrates the -src tree into it.
func migrateRun(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("run", flag.ContinueOnError)
	flags.SetOutput(stderr)
	keydir := flags.String("keydir", "./keys", "directory with key material")
	sspAddr := flags.String("ssp", "", "SSP address (host:port)")
	storeDir := flags.String("storedir", "", "local disk store instead of a remote SSP")
	fsid := flags.String("fsid", "corp", "filesystem identifier")
	owner := flags.String("owner", "", "root owner user ID")
	group := flags.String("group", "", "root group ID")
	src := flags.String("src", "", "local directory to migrate (empty: bootstrap only)")
	scheme := flags.String("scheme", "scheme2", "metadata layout: scheme1 or scheme2")
	if err := flags.Parse(args); err != nil {
		return exitUsage
	}
	usage, fail := failer(stderr, "run")
	switch {
	case *owner == "":
		return usage("-owner is required")
	case *scheme != "scheme1" && *scheme != "scheme2":
		return usage(fmt.Sprintf("unknown -scheme %q: want scheme1 or scheme2", *scheme))
	case *sspAddr == "" && *storeDir == "":
		return usage("one of -ssp or -storedir is required")
	}
	reg, err := keys.LoadRegistry(filepath.Join(*keydir, "registry.json"))
	if err != nil {
		return fail(err)
	}

	var store ssp.BlobStore
	if *sspAddr != "" {
		client, err := ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", *sspAddr) }, nil)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := client.Close(); err != nil {
				fmt.Fprintln(stderr, "sharoes-migrate run: ssp close:", err)
			}
		}()
		store = client
	} else {
		ds, err := ssp.NewDiskStore(*storeDir)
		if err != nil {
			return fail(err)
		}
		store = ds
	}

	var eng layout.Engine = layout.NewScheme2(reg)
	if *scheme == "scheme1" {
		eng = layout.NewScheme1(reg)
	}
	opts := migrate.Options{
		Store: store, Registry: reg, Layout: eng, FSID: *fsid,
		RootOwner: types.UserID(*owner), RootGroup: types.GroupID(*group),
	}

	// Publish group keys in-band so members obtain them at mount.
	for _, gid := range reg.Groups() {
		path := filepath.Join(*keydir, "group-"+string(gid)+".key")
		gu, err := keys.LoadUser(path)
		if err != nil {
			fmt.Fprintf(stderr, "sharoes-migrate run: warning: no key file for group %q (%v); skipping in-band publication\n", gid, err)
			continue
		}
		g := &keys.Group{ID: gid, Priv: gu.Priv}
		if err := keys.PublishGroupKey(store, reg, g); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "published group key for %q\n", gid)
	}

	if *src == "" {
		if err := migrate.Bootstrap(opts); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "bootstrapped empty filesystem %q (%s)\n", *fsid, eng.Name())
		return exitOK
	}
	node, err := migrate.FromLocalDir(*src, types.UserID(*owner), types.GroupID(*group))
	if err != nil {
		return fail(err)
	}
	st, err := migrate.MigrateTree(opts, node)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "migrated %q → %q (%s): %d dirs, %d files, %d bytes, %d objects, %d split points\n",
		*src, *fsid, eng.Name(), st.Dirs, st.Files, st.Bytes, st.Objects, st.SplitPoints)
	return exitOK
}
