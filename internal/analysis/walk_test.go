package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"
)

// walkPrelude is shared by every TestWalkerJoins source. res carries a
// Close obligation for resleak (its package is its own module root, so
// the type counts as module-internal); T's two mutexes feed lockorder.
// rev takes T.b then T.a, so a case that acquires T.b while T.a is held
// closes a cycle (two lockorder findings) and any other case reports
// nothing: the findings say whether T.a is held after the construct.
const walkPrelude = `package walk

import (
	"os"
	"sync"
)

type res struct{}

func (*res) Close() error { return nil }
func (*res) Ping() error  { return nil }

func Open() (*res, error) { return &res{}, nil }

func cond() bool { return false }

type T struct{ a, b sync.Mutex }

func (t *T) rev() {
	t.b.Lock()
	t.a.Lock()
	t.a.Unlock()
	t.b.Unlock()
}

var _ = os.Exit
`

// walkPkg type-checks walkPrelude plus body as one package.
func walkPkg(t *testing.T, body string) *Package {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	f, err := parser.ParseFile(loader.Fset, "walk.go", walkPrelude+body, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: loader.std}
	tpkg, err := conf.Check("walk", loader.Fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: "walk", Fset: loader.Fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// TestWalkerJoins pins how the path-sensitive analyzers join paths at
// every construct the statement walker models: each case is one small
// function, and the findings (line relative to the case body, then the
// message) are what resleak or lockorder report for it. A resleak case
// opens r first; a lockorder case takes T.a first and T.b last.
func TestWalkerJoins(t *testing.T) {
	const cycle = "lock order cycle: T.b is acquired while holding T.a, and the reverse order also occurs (potential deadlock)"
	base := strings.Count(walkPrelude, "\n") + 1 // the line before a case's func line
	leak := func(line int) string {
		return fmt.Sprintf(`walk.res "r" is not released on the path leaving at line %d; close it, hand off ownership, or allow with justification`, base+line)
	}
	for _, tc := range []struct {
		name string
		a    Analyzer
		body string
		want string // findings of the case body, "|"-separated
	}{
		// if/else
		{"if-else-both-close", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond() {
		r.Close()
	} else {
		r.Close()
	}
	return nil
}`, ""},
		{"if-one-branch-close", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond() {
		r.Close()
	}
	return nil
}`, leak(9)},
		{"if-else-both-unlock", LockOrder{}, `
func (t *T) f() {
	t.a.Lock()
	if cond() {
		t.a.Unlock()
	} else {
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		{"if-one-branch-unlock", LockOrder{}, `
func (t *T) f() {
	t.a.Lock()
	if cond() {
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		// for with a condition: zero iterations is a path out
		{"for-cond", ResLeak{}, `
func f(n int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if cond() {
			r.Close()
			return nil
		}
	}
	return nil
}`, leak(12)},
		{"for-cond-unlock-in-body", LockOrder{}, `
func (t *T) f(n int) {
	t.a.Lock()
	for i := 0; i < n; i++ {
		t.a.Unlock()
		t.a.Lock()
	}
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}`, cycle},
		// for without a condition: only a break leaves the loop
		{"for-nocond-break", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	for {
		if cond() {
			break
		}
	}
	return r.Close()
}`, ""},
		{"for-nocond-release-then-return", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	for {
		if cond() {
			r.Close()
			return nil
		}
	}
}`, leak(12)},
		{"for-nocond-break-unlocked", LockOrder{}, `
func (t *T) f() {
	t.a.Lock()
	for {
		if cond() {
			t.a.Unlock()
			break
		}
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		{"for-nocond-break-held", LockOrder{}, `
func (t *T) f() {
	for {
		t.a.Lock()
		if cond() {
			break
		}
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}`, cycle},
		// range: zero iterations is a path out
		{"range", ResLeak{}, `
func f(xs []int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	for range xs {
		r.Close()
		return nil
	}
	return nil
}`, leak(10)},
		{"range-break-held", LockOrder{}, `
func (t *T) f(xs []int) {
	for range xs {
		t.a.Lock()
		if cond() {
			break
		}
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		// labelled break and continue reach the labelled loop
		{"labelled-break", ResLeak{}, `
func f(xs []int) error {
	r, err := Open()
	if err != nil {
		return err
	}
outer:
	for range xs {
		for range xs {
			if cond() {
				break outer
			}
			r.Close()
			return nil
		}
	}
	return nil
}`, leak(16)},
		{"labelled-continue", ResLeak{}, `
func f(xs []int) error {
outer:
	for range xs {
		r, err := Open()
		if err != nil {
			return err
		}
		for range xs {
			if cond() {
				continue outer
			}
		}
		r.Close()
	}
	return nil
}`, leak(15)},
		{"labelled-break-held", LockOrder{}, `
func (t *T) f(xs []int) {
outer:
	for range xs {
		for range xs {
			t.a.Lock()
			if cond() {
				break outer
			}
			t.a.Unlock()
		}
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		{"labelled-continue-held", LockOrder{}, `
func (t *T) f(xs []int) {
outer:
	for range xs {
		for range xs {
			t.a.Lock()
			if cond() {
				continue outer
			}
			t.a.Unlock()
		}
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		// switch: without default, no case matching is a path out
		{"switch-default", ResLeak{}, `
func f(n int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	switch n {
	case 1:
		r.Close()
	default:
		r.Close()
	}
	return nil
}`, ""},
		{"switch-no-default", ResLeak{}, `
func f(n int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	switch n {
	case 1:
		r.Close()
	case 2:
		r.Close()
	}
	return nil
}`, leak(12)},
		{"switch-default-unlock", LockOrder{}, `
func (t *T) f(n int) {
	t.a.Lock()
	switch n {
	case 1:
		t.a.Unlock()
	default:
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		{"switch-no-default-unlock", LockOrder{}, `
func (t *T) f(n int) {
	t.a.Lock()
	switch n {
	case 1:
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		// type switch
		{"type-switch", ResLeak{}, `
func f(v any) error {
	r, err := Open()
	if err != nil {
		return err
	}
	switch v.(type) {
	case int:
		r.Close()
	case string:
	}
	return nil
}`, leak(11)},
		{"type-switch-default", LockOrder{}, `
func (t *T) f(v any) {
	t.a.Lock()
	switch v.(type) {
	case int:
		t.a.Unlock()
	default:
		t.a.Unlock()
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		// select: one clause always runs; select{} never completes
		{"select", ResLeak{}, `
func f(c1, c2 chan int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	select {
	case <-c1:
		r.Close()
	case v := <-c2:
		_ = v
	}
	return nil
}`, leak(12)},
		{"select-all-close", ResLeak{}, `
func f(c1, c2 chan int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	select {
	case <-c1:
		r.Close()
	case c2 <- 1:
		r.Close()
	}
	return nil
}`, ""},
		{"select-empty", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	r.Ping()
	select {}
}`, ""},
		{"select-unlock", LockOrder{}, `
func (t *T) f(c1, c2 chan int) {
	t.a.Lock()
	select {
	case <-c1:
		t.a.Unlock()
	case <-c2:
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		{"select-empty-held", LockOrder{}, `
func (t *T) f(c chan int) {
	t.a.Lock()
	if cond() {
		select {}
	}
	t.a.Unlock()
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		// fallthrough leaves the case body like its end does
		{"fallthrough", ResLeak{}, `
func f(n int) error {
	r, err := Open()
	if err != nil {
		return err
	}
	switch n {
	case 1:
		fallthrough
	case 2:
		r.Close()
	default:
		r.Close()
	}
	return nil
}`, leak(14)},
		// goto ends the analyzed path
		{"goto", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond() {
		goto out
	}
	r.Close()
out:
	return nil
}`, ""},
		{"goto-held", LockOrder{}, `
func (t *T) f() {
	t.a.Lock()
	if cond() {
		goto out
	}
	t.a.Unlock()
	t.b.Lock()
	t.b.Unlock()
out:
}`, ""},
		// defer runs at every exit
		{"defer-close", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	defer r.Close()
	if cond() {
		return nil
	}
	return r.Ping()
}`, ""},
		{"defer-unlock-held", LockOrder{}, `
func (t *T) f() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
		// terminators end the path
		{"panic", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond() {
		panic("walk")
	}
	return r.Close()
}`, ""},
		{"os-exit", ResLeak{}, `
func f() error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond() {
		os.Exit(1)
	}
	return r.Close()
}`, ""},
		{"os-exit-held", LockOrder{}, `
func (t *T) f() {
	if cond() {
		t.a.Lock()
		os.Exit(1)
	}
	t.b.Lock()
	t.b.Unlock()
}`, ""},
		{"panic-held", LockOrder{}, `
func (t *T) f() {
	if cond() {
		t.a.Lock()
		panic("walk")
	}
	t.b.Lock()
	t.b.Unlock()
}`, cycle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := walkPkg(t, tc.body)
			var got []string
			for _, f := range Run(p, []Analyzer{tc.a}) {
				if f.Pos.Line <= base {
					continue // the prelude's half of a cycle
				}
				got = append(got, f.Message)
			}
			if g := strings.Join(got, "|"); g != tc.want {
				t.Errorf("findings:\n  %s\nwant:\n  %s", strings.ReplaceAll(g, "|", "\n  "), strings.ReplaceAll(tc.want, "|", "\n  "))
			}
		})
	}
}
