package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module without
// golang.org/x/tools: module-internal import paths are resolved against
// the module root and type-checked recursively; everything else (the
// standard library) is handled by the stdlib source importer. A Loader
// is not safe for concurrent use.
type Loader struct {
	Fset    *token.FileSet
	ModPath string // module path from go.mod
	ModRoot string // absolute directory containing go.mod

	std  types.ImporterFrom
	pkgs map[string]*Package // memoized by import path
	busy map[string]bool     // import-cycle guard
}

// NewLoader locates the module containing dir (by walking up to go.mod)
// and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: root,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		busy:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", file)
}

// LoadDir loads the package in dir, which must be inside the module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, abs, err := l.dirToPath(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// dirToPath maps a package directory to its import path and absolute
// location, rejecting directories outside the module.
func (l *Loader) dirToPath(dir string) (path, abs string, err error) {
	abs, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", "", fmt.Errorf("analysis: %s is outside module %s", abs, l.ModRoot)
	}
	path = l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return path, abs, nil
}

// load parses and type-checks one package directory, memoized by import
// path. Test files are excluded: the invariants guard production code,
// and tests legitimately print values.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l), FakeImportC: true}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// goFileNames lists the buildable non-test Go files of dir, honoring
// build constraints for the current platform.
func goFileNames(dir string) ([]string, error) {
	ctx := build.Default
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil, err
		}
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	return names, nil
}

// loaderImporter adapts Loader to types.Importer for use during
// type-checking of dependencies.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// ExpandPatterns resolves go-style package patterns relative to root into
// package directories. A pattern ending in "/..." is walked recursively;
// other patterns name single directories. testdata, vendor and hidden
// directories are skipped, matching the go tool.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if pat == "..." {
			pat, rec = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, rec = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, pat)
		}
		if !rec {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one buildable
// non-test Go file.
func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// ScanAllowCounts parses the Go files under dirs (syntax only, no type
// checking) and sums justified allow directives per analyzer name. It
// feeds sharoes-vet -list and the committed allow budget
// (TestAllowBudget). Unparseable files are skipped: load errors are the
// loader's to report.
func ScanAllowCounts(dirs []string) map[string]int {
	fset := token.NewFileSet()
	out := make(map[string]int)
	for _, dir := range dirs {
		names, err := goFileNames(dir)
		if err != nil {
			continue
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllowDirective(c.Text)
					if !ok || reason == "" {
						continue
					}
					for _, n := range names {
						out[n]++
					}
				}
			}
		}
	}
	return out
}
