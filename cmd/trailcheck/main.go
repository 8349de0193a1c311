// Trailcheck is the repo's invariant checker: a multichecker for the
// custom analyzers in internal/lint (virtualtime, determinism, errtaxonomy,
// nilguard). determinism follows sinks through helpers over a call graph of
// every loaded package, so run trailcheck over the full tree:
//
//	go run ./cmd/trailcheck ./...             # plain, vet-style output
//	go run ./cmd/trailcheck -json ./...       # machine-readable findings
//	go run ./cmd/trailcheck -analyzers virtualtime ./internal/trail
//	go run ./cmd/trailcheck -list             # name and describe each analyzer
//
// Exit status: 0 clean, 1 findings, 2 usage/load failure. There is no
// suppression directive: a finding is fixed, not silenced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tracklog/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: trailcheck [-json] [-analyzers a,b] [-list] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *names != "" {
		var err error
		if analyzers, err = lint.ByName(*names); err != nil {
			fmt.Fprintln(os.Stderr, "trailcheck:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trailcheck:", err)
		return 2
	}
	loadFailed := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "trailcheck: %s: %v\n", p.ImportPath, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		return 2
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trailcheck:", err)
		return 2
	}

	if *jsonOut {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "trailcheck:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
