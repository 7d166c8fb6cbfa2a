package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis. It is
// the subset of golang.org/x/tools/go/packages.Package the analyzers
// need, built from `go list -export` plus the standard library's parser,
// type checker and gc export-data importer.
type Package struct {
	Path      string
	Name      string
	Fset      *token.FileSet
	Files     []*ast.File
	Src       map[string][]byte // filename -> source, for line-level allow comments
	Types     *types.Package
	TypesInfo *types.Info
	// Unmatched marks a package LoadModule type-checked although no
	// pattern names it. Analyzers see it (parsafe's call graph must not
	// stop at a package boundary); Run reports nothing found in it.
	Unmatched bool
}

// listedPackage is the slice of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Match      []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// exportLookup serves compiled export data by import path, backed by
// `go list -export`. It is safe for concurrent use and lazily extends
// itself for paths (standard library fixtures imports, for example) that
// were not part of the original query.
type exportLookup struct {
	mu      sync.Mutex
	exports map[string]string // import path -> export data file
}

func (l *exportLookup) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	f, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		// Not in the original -deps closure (a fixture importing a
		// stdlib package the repo itself never uses): list it on demand.
		pkgs, err := goList("-export", "-deps", path)
		if err != nil {
			return nil, fmt.Errorf("lookup %s: %w", path, err)
		}
		l.add(pkgs)
		l.mu.Lock()
		f, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
	}
	return os.Open(f)
}

func (l *exportLookup) add(pkgs []listedPackage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// sharedLookup is the process-wide export-data cache: analyzer tests and
// the multichecker all funnel through it so each dependency is listed at
// most once.
var sharedLookup = &exportLookup{exports: map[string]string{}}

// goList runs `go list -e -json` with the given flags and patterns and
// decodes the package stream.
func goList(args ...string) ([]listedPackage, error) {
	args = append([]string{
		"list", "-e", "-json=ImportPath,Name,Dir,Export,GoFiles,Match,DepOnly,Error",
	}, args...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args[2:], err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModule parses and type-checks from source every package of the
// module, plus any out-of-module package a pattern names, and marks the
// packages no pattern matches Unmatched. Test files are excluded: the
// invariants paraxlint enforces are production-code contracts, and tests
// legitimately print, time and randomize. Every analyzer therefore sees
// the same module whatever the patterns, and the findings of a run over
// some packages are the whole module's findings located in them:
// `paraxlint ./internal/phys/...` still hands parsafe the worker hot
// path's reach into internal/obs, and a waiver in internal/obs is not
// unused for want of its caller. Out-of-module dependencies remain
// export data.
func LoadModule(patterns ...string) ([]*Package, error) {
	modPath, err := modulePath()
	if err != nil {
		return nil, err
	}
	// The module comes first so the package order, and with it every
	// analyzer's, is the same as for ./... whatever the patterns add.
	all := modPath + "/..."
	pkgs, err := goList(append([]string{"-export", "-deps", all}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// Match lists the patterns a package matched; the module pattern
	// added above counts only if the caller passed it too.
	allMatched := slices.Contains(patterns, all)
	byPattern := func(m string) bool { return allMatched || m != all }
	sharedLookup.add(pkgs)
	// All in-module packages share one FileSet and resolve their
	// in-module imports to each other's source-checked *types.Package
	// (go list -deps emits dependencies before dependents, so the deps
	// map is always populated in time). Without this, a dependent would
	// import its deps as gc export data, and the object identities the
	// module call graph is built on would not match across packages.
	fset := token.NewFileSet()
	deps := map[string]*types.Package{}
	// One export-data importer instance for the whole module: it caches
	// out-of-module packages by path, so two in-module packages that both
	// mention time.Duration agree on its identity.
	imp := &chainImporter{deps: deps, next: importer.ForCompiler(fset, "gc", sharedLookup.lookup)}
	var out []*Package
	for _, p := range pkgs {
		if p.DepOnly {
			continue // an out-of-module dependency
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		lp, err := typeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		lp.Unmatched = !slices.ContainsFunc(p.Match, byPattern)
		deps[lp.Path] = lp.Types
		out = append(out, lp)
	}
	return out, nil
}

// modulePath returns the import path of the module containing the
// working directory, cached after the first `go list -m`.
func modulePath() (string, error) {
	modOnce.Do(func() {
		cmd := exec.Command("go", "list", "-m")
		var out, errb bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &errb
		if err := cmd.Run(); err != nil {
			modErr = fmt.Errorf("go list -m: %v\n%s", err, errb.String())
			return
		}
		modCached = strings.TrimSpace(out.String())
	})
	return modCached, modErr
}

var (
	modOnce   sync.Once
	modCached string
	modErr    error
)

// TypeCheckWith parses and type-checks one package from explicit file
// paths, positions recorded in the caller's FileSet. deps maps import
// paths to already-checked source packages that take precedence over gc
// export data, which is how the analyzer test harness builds
// multi-package fixtures out of testdata (a fixture root importing a
// fixture dep, neither of which has export data on disk).
func TypeCheckWith(fset *token.FileSet, path string, filenames []string, deps map[string]*types.Package) (*Package, error) {
	var imp types.Importer = importer.ForCompiler(fset, "gc", sharedLookup.lookup)
	if len(deps) > 0 {
		imp = &chainImporter{deps: deps, next: imp}
	}
	return typeCheck(fset, path, filenames, imp)
}

// typeCheck is the shared parse-and-check core; the importer decides how
// imports resolve (export data, in-memory packages, or a chain).
func typeCheck(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	src := make(map[string][]byte, len(filenames))
	for _, fn := range filenames {
		b, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		src[fn] = b
		f, err := parser.ParseFile(fset, fn, b, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Name:      tpkg.Name(),
		Fset:      fset,
		Files:     files,
		Src:       src,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// chainImporter resolves imports from an in-memory package map first,
// falling back to the export-data importer for everything else.
type chainImporter struct {
	deps map[string]*types.Package
	next types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.deps[path]; ok {
		return p, nil
	}
	return c.next.Import(path)
}
