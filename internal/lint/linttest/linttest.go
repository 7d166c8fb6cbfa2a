// Package linttest is a golden-file test harness for paraxlint
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest:
// fixture packages under testdata annotate the lines where diagnostics
// are expected with trailing `// want "regexp"` comments, and Run
// reports both missing and unexpected diagnostics.
//
// A fixture directory is one package (its *.go files, which may be
// several) plus, optionally, one sub-package per subdirectory for
// multi-package fixtures. Subdirectories are type-checked first, in
// name order, and are importable from the root files as
// "paraxlint.test/<dir>/<sub>" — which is how the parsafe fixtures
// exercise cross-package call-graph propagation.
package linttest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"github.com/parallax-arch/parallax/internal/lint"
)

// wantBlockRe finds a `want "..." "..."` expectation list anywhere in a
// comment (so a want can also trail a //paraxlint:allow comment under
// test); wantRe then extracts the individual quoted strings.
var (
	wantBlockRe = regexp.MustCompile(`want((?:\s+"(?:[^"\\]|\\.)*")+)`)
	wantRe      = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

// Load type-checks a fixture directory — subdirectory packages first,
// then the root package, all sharing one FileSet — and returns the
// packages in that order (root last).
func Load(t *testing.T, dir string) []*lint.Package {
	t.Helper()
	fset := token.NewFileSet()
	deps := map[string]*types.Package{}
	base := "paraxlint.test/" + filepath.Base(dir)
	var pkgs []*lint.Package

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir %s: %v", dir, err)
	}
	var subs []string
	for _, e := range entries {
		if e.IsDir() {
			subs = append(subs, e.Name())
		}
	}
	sort.Strings(subs)
	for _, s := range subs {
		files, err := filepath.Glob(filepath.Join(dir, s, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fixture files in %s/%s: %v", dir, s, err)
		}
		p, err := lint.TypeCheckWith(fset, base+"/"+s, files, deps)
		if err != nil {
			t.Fatalf("type-checking fixture package %s: %v", s, err)
		}
		deps[p.Path] = p.Types
		pkgs = append(pkgs, p)
	}

	rootFiles, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || (len(rootFiles) == 0 && len(pkgs) == 0) {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	if len(rootFiles) > 0 {
		p, err := lint.TypeCheckWith(fset, base, rootFiles, deps)
		if err != nil {
			t.Fatalf("type-checking fixtures: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// Run type-checks the fixture in dir, applies the analyzer to its
// packages, and matches the diagnostics against the fixture's `// want`
// comments: each diagnostic must match a want on its line, and every
// want must be matched by some diagnostic.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkgs := Load(t, dir)
	diags, err := lint.Run(a, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	match(t, pkgs, diags)
}

// match checks diagnostics against the want comments of every fixture
// package.
func match(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					block := wantBlockRe.FindStringSubmatch(c.Text)
					if block == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(block[1], -1) {
						unquoted, err := strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want string %q: %v", pos, m[1], err)
						}
						re, err := regexp.Compile(unquoted)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, unquoted, err)
						}
						wants = append(wants, &expectation{
							file: pos.Filename, line: pos.Line, re: re, text: unquoted,
						})
					}
				}
			}
		}
	}

	var unexpected []string
	for _, d := range diags {
		pos := d.Position
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, fmt.Sprintf("%s: unexpected diagnostic: %s", pos, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Error(u)
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.text)
		}
	}
}
