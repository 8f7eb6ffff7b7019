package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// Finding is the exported, serializable form of one diagnostic, as
// emitted by -json and -sarif and recorded in baseline files. File is
// relative to the working directory when possible, so baselines and
// SARIF artifacts travel between checkouts.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	EndLine  int    `json:"end_line,omitempty"`
	EndCol   int    `json:"end_column,omitempty"`
	Message  string `json:"message"`
}

// exportFindings converts internal findings, relativizing paths.
func exportFindings(fs []finding) []Finding {
	cwd, _ := os.Getwd()
	rel := func(p string) string {
		if cwd == "" || p == "" {
			return p
		}
		if r, err := filepath.Rel(cwd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return p
	}
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		e := Finding{
			Analyzer: f.analyzer,
			File:     rel(f.pos.Filename),
			Line:     f.pos.Line,
			Column:   f.pos.Column,
			Message:  f.message,
		}
		if f.end.Line > 0 {
			e.EndLine, e.EndCol = f.end.Line, f.end.Column
		}
		out = append(out, e)
	}
	return out
}

// printFindings writes findings in the canonical file:line:col form the
// acceptance tests (and editors) expect.
func printFindings(w io.Writer, fs []Finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
	}
}

// writeJSON emits the findings as a JSON array (stable field order,
// trailing newline) for tooling.
func writeJSON(w io.Writer, fs []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if fs == nil {
		fs = []Finding{}
	}
	return enc.Encode(fs)
}

// --- SARIF ------------------------------------------------------------------

// writeSARIF emits a minimal SARIF 2.1.0 log: one run, one rule per
// analyzer, one result per finding. This is the subset GitHub code
// scanning and most SARIF viewers consume.
func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, fs []Finding) error {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID   string       `json:"id"`
		Name string       `json:"name"`
		Help sarifMessage `json:"shortDescription"`
	}
	type sarifArtifact struct {
		URI string `json:"uri"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
		EndLine     int `json:"endLine,omitempty"`
		EndColumn   int `json:"endColumn,omitempty"`
	}
	type sarifPhysical struct {
		ArtifactLocation sarifArtifact `json:"artifactLocation"`
		Region           sarifRegion   `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysical `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	type sarifDriver struct {
		Name           string      `json:"name"`
		InformationURI string      `json:"informationUri"`
		Rules          []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Schema  string     `json:"$schema"`
		Version string     `json:"version"`
		Runs    []sarifRun `json:"runs"`
	}

	var rules []sarifRule
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		rules = append(rules, sarifRule{ID: a.Name, Name: a.Name, Help: sarifMessage{Text: doc}})
	}
	results := []sarifResult{}
	for _, f := range fs {
		r := sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File)},
					Region: sarifRegion{
						StartLine:   f.Line,
						StartColumn: f.Column,
						EndLine:     f.EndLine,
						EndColumn:   f.EndCol,
					},
				},
			}},
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "crumblint", InformationURI: "https://example.invalid/crumblint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// --- baseline ---------------------------------------------------------------

// baselineEntry identifies a known finding. Line numbers are
// deliberately absent: a baseline survives unrelated edits above the
// finding, and dies with the finding itself (message + file + analyzer
// is the identity).
type baselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
}

// baseline is a checked-in inventory of pre-existing findings that must
// not fail CI while still failing it for anything new.
type baseline struct {
	entries map[baselineEntry]int // entry -> allowed count
}

func baselineKey(f Finding) baselineEntry {
	return baselineEntry{Analyzer: f.Analyzer, File: filepath.ToSlash(f.File), Message: f.Message}
}

// loadBaseline reads a baseline file; a missing file is an empty
// baseline, so bootstrapping needs no special case.
func loadBaseline(path string) (*baseline, error) {
	b := &baseline{entries: map[baselineEntry]int{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	for _, e := range entries {
		e.File = filepath.ToSlash(e.File)
		b.entries[e]++
	}
	return b, nil
}

// filter splits findings into new (returned) and baselined (counted).
// Counts match multiset-style: two identical baselined findings need
// two baseline entries.
func (b *baseline) filter(fs []Finding) ([]Finding, int) {
	remaining := make(map[baselineEntry]int, len(b.entries))
	for k, v := range b.entries {
		remaining[k] = v
	}
	var out []Finding
	suppressed := 0
	for _, f := range fs {
		k := baselineKey(f)
		if remaining[k] > 0 {
			remaining[k]--
			suppressed++
			continue
		}
		out = append(out, f)
	}
	return out, suppressed
}

// writeBaseline records the given findings as the new baseline.
func writeBaseline(path string, fs []Finding) error {
	entries := make([]baselineEntry, 0, len(fs))
	for _, f := range fs {
		entries = append(entries, baselineKey(f))
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
