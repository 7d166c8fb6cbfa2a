// Package lint is paraxlint: a suite of static analyzers that enforce
// the repository's hot-path and determinism invariants at compile time
// instead of benchmark time.
//
// The suite mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) on the standard library alone — go/ast, go/types and
// export data served by `go list -export` — because this module is
// dependency-free by policy. The analyzers:
//
//   - parsafe: one module-wide call graph walked from the hot-path
//     roots — nothing reachable from a `//paraxlint:noalloc` function
//     allocates, and everything reachable from a `//paraxlint:parroot`
//     worker is also safe to run concurrently (see parsafe.go; the
//     allocating construct set is in noalloc.go).
//   - determinism: flags order-dependent map iteration, global math/rand
//     state and wall-clock reads in the engine, model and harness
//     packages (see determinism.go).
//   - floatcmp: flags exact ==/!= between floating-point expressions
//     (see floatcmp.go).
//   - chunkown: chunk workers index-write only what they own (see
//     chunkown.go).
//
// Findings are suppressed, one source line at a time, with
// `//paraxlint:allow(<category>)` escape hatches; an allow comment that
// suppresses nothing is itself a finding, so waivers cannot rot.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks can migrate to
// the upstream framework wholesale if the dependency policy ever allows
// it. Every analyzer sees the whole loaded package set at once: a
// per-package check loops over the passes, and parsafe builds its call
// graph from all of them.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CI output.
	Name string
	// Doc is the one-paragraph description printed by `paraxlint -help`.
	Doc string
	// Categories lists the //paraxlint:allow(...) categories this
	// analyzer owns. An unused allow comment in an owned category is
	// reported by this analyzer.
	Categories []string
	// Run executes the check, given one pass per loaded package.
	Run func([]*Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	src    map[string][]byte // filename -> source
	diags  []Diagnostic
	allows []*allowComment
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // allow-comment category that can suppress it
	Message  string
	Analyzer string
	// Position is Pos resolved against the owning package's FileSet:
	// what the CLI sorts and prints.
	Position token.Position
}

// Reportf records a finding unless an allow comment for its category
// covers the line it is anchored to.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...interface{}) {
	line := p.Fset.Position(pos).Line
	file := p.Fset.Position(pos).Filename
	for _, a := range p.allows {
		if a.category == category && a.file == file && a.covers(line) {
			a.used = true
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// allowComment is one parsed //paraxlint:allow(category) escape hatch.
// It covers findings on its own line; a comment alone on a line covers
// the following line instead, so waivers can sit above long expressions.
type allowComment struct {
	pos        token.Pos
	file       string
	line       int
	standalone bool // comment is the only thing on its line
	category   string
	used       bool
}

func (a *allowComment) covers(line int) bool {
	if a.standalone {
		return line == a.line+1
	}
	return line == a.line
}

const allowPrefix = "//paraxlint:allow("

// collectAllows parses every //paraxlint:allow(...) comment in the
// pass's files, keeping only categories the analyzer owns.
func (p *Pass) collectAllows() {
	owned := make(map[string]bool, len(p.Analyzer.Categories))
	for _, c := range p.Analyzer.Categories {
		owned[c] = true
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Trailing text after the closing paren is the waiver's
				// justification: //paraxlint:allow(alloc) lazy one-time cache
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				close := strings.IndexByte(rest, ')')
				if close < 0 {
					continue
				}
				cat := rest[:close]
				if !owned[cat] {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				p.allows = append(p.allows, &allowComment{
					pos:        c.Pos(),
					file:       pos.Filename,
					line:       pos.Line,
					standalone: p.standalone(pos),
					category:   cat,
				})
			}
		}
	}
}

// standalone reports whether only whitespace precedes the comment on its
// source line (the comment sits on a line of its own).
func (p *Pass) standalone(pos token.Position) bool {
	src, ok := p.src[pos.Filename]
	if !ok {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return len(strings.TrimSpace(string(src[start:pos.Offset]))) == 0
}

// finish reports any allow comment (in a category the analyzer owns)
// that suppressed nothing: stale waivers are findings too.
func (p *Pass) finish() {
	for _, a := range p.allows {
		if !a.used {
			p.diags = append(p.diags, Diagnostic{
				Pos:      a.pos,
				Category: a.category,
				Message:  fmt.Sprintf("unused //paraxlint:allow(%s) comment suppresses nothing", a.category),
				Analyzer: p.Analyzer.Name,
			})
		}
	}
}

// Run applies one analyzer to a loaded package set and returns the
// findings located in its matched packages, sorted by (file, line,
// column, analyzer). The analyzer sees every package, so a root's reach
// and a waiver's use count across all of them, and the findings of a
// run over some packages are exactly those a run over the whole module
// reports in them.
func Run(a *Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	passes := newPasses(a, pkgs)
	if err := a.Run(passes); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	var diags []Diagnostic
	for i, pass := range passes {
		if pkgs[i].Unmatched {
			continue
		}
		pass.finish()
		for _, d := range pass.diags {
			d.Position = pass.Fset.Position(d.Pos)
			diags = append(diags, d)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// newPasses builds one pass per package, its allow comments collected.
func newPasses(a *Analyzer, pkgs []*Package) []*Pass {
	passes := make([]*Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			src:       pkg.Src,
		}
		passes[i].collectAllows()
	}
	return passes
}

// eachPass adapts a one-package check to Analyzer.Run.
func eachPass(check func(*Pass)) func([]*Pass) error {
	return func(passes []*Pass) error {
		for _, pass := range passes {
			check(pass)
		}
		return nil
	}
}

// SortDiagnostics orders findings by (file, line, column, analyzer) —
// the stable order the CLI prints, byte-identical across runs and
// thread counts so the findings file can be diffed as a CI artifact.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := &ds[i], &ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All is the paraxlint suite in the order the multichecker runs it.
var All = []*Analyzer{Determinism, FloatCmp, ChunkOwn, ParSafe}

// Lookup finds the named analyzers, in the order given. Unknown names
// are an error listing the valid names.
func Lookup(names ...string) ([]*Analyzer, error) {
	as := make([]*Analyzer, len(names))
	for i, name := range names {
		j := slices.IndexFunc(All, func(a *Analyzer) bool { return a.Name == name })
		if j < 0 {
			valid := make([]string, len(All))
			for k, a := range All {
				valid[k] = a.Name
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		as[i] = All[j]
	}
	return as, nil
}

// exprText renders an expression back to source text, for structural
// matching of destinations (append-in-place, sort-after-range).
func exprText(pass *Pass, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, pass.Fset, e)
	return buf.String()
}

// hasDirective reports whether a function's doc comment carries the
// given //paraxlint: directive (e.g. "noalloc", "parroot"). Text after
// the directive name is a justification and is ignored:
// //paraxlint:coldpath detonation path, fires on events only.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	want := "//paraxlint:" + directive
	for _, c := range doc.List {
		t := strings.TrimSpace(c.Text)
		if t == want || strings.HasPrefix(t, want+" ") {
			return true
		}
	}
	return false
}
