package driver

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Finding is one diagnostic as crumblint reports it. File is relative
// to the working directory when it lies below it.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// relativize rewrites each finding's File relative to the working
// directory where that does not climb out of it.
func relativize(fs []Finding) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range fs {
		if r, err := filepath.Rel(cwd, fs[i].File); err == nil && !strings.HasPrefix(r, "..") {
			fs[i].File = r
		}
	}
}

// printFindings writes one `file:line:col: message [analyzer]` line per
// finding: the form editors jump to and the CI problem matcher
// (.github/crumblint-matcher.json) parses into annotations.
func printFindings(w io.Writer, fs []Finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
	}
}
