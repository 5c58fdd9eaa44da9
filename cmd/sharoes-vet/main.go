// Command sharoes-vet runs the Sharoes invariant analyzers (package
// internal/analysis) over the repository:
//
//	sharoes-vet ./...                      # whole module, all analyzers
//	sharoes-vet ./internal/ssp             # one package
//	sharoes-vet -run keyleak,aadbind ./... # a subset of the analyzers
//	sharoes-vet -list                      # describe the analyzers + allow counts
//
// Every run is cold and sequential: each package is parsed and
// type-checked from source, then every selected analyzer runs over it.
// Nothing is cached or compared against a stored result, so a run
// always reflects the analyzers and the tree as they are now. Findings
// print as module-root-relative file:line:col: [analyzer] message lines.
// Exits:
//
//	0  no unsuppressed finding
//	1  at least one unsuppressed finding
//	2  usage or load/type-check error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/sharoes/sharoes/internal/analysis"
)

// Exit codes, part of the tool's contract with CI and editors.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, analyzes the packages they
// name (default ./..., relative to the working directory) and returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sharoes-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers (with allow counts) and exit")
	only := flags.String("run", "", "comma-separated analyzer names to run (default all)")
	if err := flags.Parse(args); err != nil {
		return exitError
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sharoes-vet:", err)
		return exitError
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		return fail(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.ExpandPatterns(cwd, patterns)
	if err != nil {
		return fail(err)
	}
	sort.Strings(dirs)

	if *list {
		allows := analysis.ScanAllowCounts(dirs)
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s allows=%-3d %s\n", a.Name(), allows[a.Name()], a.Doc())
		}
		return exitClean
	}

	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		return fail(err)
	}
	var findings []analysis.Finding
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			return fail(err)
		}
		findings = append(findings, analysis.Run(p, analyzers)...)
	}
	for _, f := range findings {
		if rel, err := filepath.Rel(loader.ModRoot, f.Pos.Filename); err == nil {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return exitFindings
	}
	return exitClean
}

// selectAnalyzers resolves a -run list to analyzers; empty means all.
func selectAnalyzers(only string) ([]analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]analysis.Analyzer, len(all))
	names := make([]string, len(all))
	for i, a := range all {
		byName[a.Name()] = a
		names[i] = a.Name()
	}
	var sel []analysis.Analyzer
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			// A typo'd name silently checking nothing would defeat the
			// tool; fail loudly and say what exists.
			return nil, fmt.Errorf("unknown analyzer %q in -run (have: %s)", n, strings.Join(names, ", "))
		}
		sel = append(sel, a)
	}
	return sel, nil
}
