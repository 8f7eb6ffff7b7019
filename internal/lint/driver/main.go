package driver

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// Main is cmd/crumblint's entry point: it parses the command line,
// analyzes the packages named by its patterns (test files included),
// resolved through `go list`, and prints every finding. It exits 1
// when there is a finding and 2 when the run itself fails.
func Main(analyzers ...*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix(progname() + ": ")
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = flag.Bool(a.Name, false, "enable only the "+a.Name+" analyzer: "+summary(a))
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s machine-checks crumbcruncher's ordering, telemetry and resource invariants.

Usage:
	%[1]s [-NAME...] package...	# e.g. %[1]s ./...

Analyzers (all run by default; -NAME selects a subset):
`, progname())
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "	%-12s %s\n", a.Name, summary(a))
		}
		os.Exit(2)
	}
	flag.Parse()

	// Explicitly enabled analyzers narrow the run to just those; with no
	// selection flags every analyzer runs.
	var enabled []*analysis.Analyzer
	for _, a := range analyzers {
		if *selected[a.Name] {
			enabled = append(enabled, a)
		}
	}
	if len(enabled) == 0 {
		enabled = analyzers
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
	}
	findings, err := Run(os.Stdout, Options{Patterns: args, Analyzers: enabled})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname(), err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// summary is the first line of an analyzer's Doc.
func summary(a *analysis.Analyzer) string {
	doc, _, _ := strings.Cut(a.Doc, "\n")
	return doc
}

func progname() string { return filepath.Base(os.Args[0]) }
