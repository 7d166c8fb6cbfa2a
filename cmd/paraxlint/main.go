// Command paraxlint runs the repository's static-invariant analyzers
// (determinism, floatcmp, chunkown and parsafe, the call-graph analysis
// that holds everything reachable from a //paraxlint:noalloc root to "no
// allocation" and everything reachable from a //paraxlint:parroot worker
// to the concurrency rules as well — see internal/lint) and exits
// non-zero if any finding survives its //paraxlint:allow escape hatches.
//
// Every run type-checks and analyzes the whole module; the package
// patterns only choose where findings are reported. A run over some
// packages therefore prints exactly the lines a run over ./... prints
// for them. An unknown -only name exits 2 before anything loads.
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
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := lint.All
	if *only != "" {
		var err error
		if analyzers, err = lint.Lookup(strings.Split(strings.ReplaceAll(*only, " ", ""), ",")...); err != nil {
			fmt.Fprintf(os.Stderr, "paraxlint: %v\n", err)
			os.Exit(2)
		}
	}

	pkgs, err := lint.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxlint: %v\n", err)
		os.Exit(2)
	}

	var all []lint.Diagnostic
	for _, a := range analyzers {
		diags, err := lint.Run(a, pkgs)
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
