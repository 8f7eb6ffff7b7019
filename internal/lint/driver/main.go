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

// Main is cmd/crumblint's entry point: it parses the command line and
// analyzes the packages named by its patterns, resolved through
// `go list`.
func Main(analyzers ...*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix(progname() + ": ")
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	testsFlag := flag.Bool("tests", true, "also analyze test files")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array")
	sarifFlag := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	baselineFlag := flag.String("baseline", "", "suppress findings listed in this baseline file")
	writeBaselineFlag := flag.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	cacheFlag := flag.String("cache", "", "directory for the content-hash result cache (e.g. bin/.lintcache)")
	parallelFlag := flag.Int("parallel", 0, "max concurrent units (0 = GOMAXPROCS)")
	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		usage := a.Doc
		if i := strings.IndexByte(usage, '\n'); i >= 0 {
			usage = usage[:i]
		}
		selected[a.Name] = flag.Bool(a.Name, false, "enable only the "+a.Name+" analyzer: "+usage)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s machine-checks crumbcruncher's determinism, clock and telemetry invariants.

Usage:
	%[1]s [flags] [-NAME...] package...	# e.g. %[1]s ./...

Analyzers (all run by default; -NAME selects a subset):
`, progname())
		for _, a := range analyzers {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(os.Stderr, "	%-12s %s\n", a.Name, doc)
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
	format := "plain"
	if *jsonFlag {
		format = "json"
	}
	if *sarifFlag {
		format = "sarif"
	}
	runStandaloneMain(os.Stdout, Options{
		Patterns:          args,
		IncludeTests:      *testsFlag,
		Analyzers:         enabled,
		CacheDir:          *cacheFlag,
		Format:            format,
		BaselinePath:      *baselineFlag,
		WriteBaselinePath: *writeBaselineFlag,
		Parallel:          *parallelFlag,
	})
}

func progname() string { return filepath.Base(os.Args[0]) }
