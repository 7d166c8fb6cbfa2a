// Command paraxlint runs the repository's static-invariant analyzers
// (determinism, floatcmp, chunkown per package, plus the module-spanning
// parsafe call-graph analysis, which holds everything reachable from a
// //paraxlint:noalloc root to "no allocation" and everything reachable
// from a //paraxlint:parroot worker to the concurrency rules as well —
// see internal/lint) over a set of package patterns and exits non-zero
// if any finding survives its //paraxlint:allow escape hatches.
//
// Findings are printed sorted by (file, line, column, analyzer), so the
// output is byte-stable across runs and diffable as a CI artifact; -o
// writes the same lines to a file as well.
//
// Usage:
//
//	go run ./cmd/paraxlint ./...
//	go run ./cmd/paraxlint -only parsafe ./internal/phys/...
//	go run ./cmd/paraxlint -o findings.txt ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/parallax-arch/parallax/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	outFile := flag.String("o", "", "also write the sorted findings to this file (written even when empty)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paraxlint [-only name,...] [-o file] packages...\n\nanalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.AllModule {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := lint.All
	modAnalyzers := lint.AllModule
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		analyzers = nil
		for _, a := range lint.All {
			if want[a.Name] {
				analyzers = append(analyzers, a)
			}
		}
		modAnalyzers = nil
		for _, a := range lint.AllModule {
			if want[a.Name] {
				modAnalyzers = append(modAnalyzers, a)
			}
		}
		if len(analyzers)+len(modAnalyzers) == 0 {
			fmt.Fprintf(os.Stderr, "paraxlint: no analyzers match -only=%s\n", *only)
			os.Exit(2)
		}
	}

	// LoadModule hands parsafe the full in-module closure even for subset
	// patterns; per-package analyzers skip the DepOnly extras.
	pkgs, err := lint.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxlint: %v\n", err)
		os.Exit(2)
	}

	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		for _, a := range analyzers {
			diags, err := lint.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paraxlint: %v\n", err)
				os.Exit(2)
			}
			all = append(all, diags...)
		}
	}
	for _, a := range modAnalyzers {
		diags, err := lint.RunModule(a, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paraxlint: %v\n", err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}

	lint.SortDiagnostics(all)
	var out strings.Builder
	for _, d := range all {
		fmt.Fprintf(&out, "%s: %s (%s)\n", d.Position, d.Message, d.Analyzer)
	}
	fmt.Print(out.String())
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(out.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paraxlint: writing %s: %v\n", *outFile, err)
			os.Exit(2)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}
