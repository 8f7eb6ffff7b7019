package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"crumbcruncher/internal/lint/analysis"
	"crumbcruncher/internal/runio"
)

// cacheSalt versions the cache entry format itself; bump it when the
// entry shape or keying scheme changes.
const cacheSalt = "crumblint-cache-v1"

// lintCache is the driver's content-hash result cache (bin/.lintcache).
// An entry is keyed by everything that can change a unit's diagnostics:
// the analyzer set (names and versions), the toolchain, the unit's
// source bytes, and the fact sets of its module dependencies. Keying
// dependencies by their *fact hash* rather than their source hash means
// editing a dependency invalidates dependents only when its exported
// facts actually change — a comment-only edit re-lints one package, not
// the tree above it.
type lintCache struct {
	dir        string
	configHash string // salt + toolchain + analyzer names/versions
}

// cacheEntry is the on-disk value: the unit's findings plus its
// exported facts (dependents need the facts even on a hit).
type cacheEntry struct {
	Findings []cachedFinding `json:"findings"`
	Facts    json.RawMessage `json:"facts"`
}

// cachedFinding is finding with serializable positions.
type cachedFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	EndFile  string `json:"end_file,omitempty"`
	EndLine  int    `json:"end_line,omitempty"`
	EndCol   int    `json:"end_column,omitempty"`
	Message  string `json:"message"`
}

// openCache prepares a cache rooted at dir for the given analyzer set.
func openCache(dir string, analyzers []*analysis.Analyzer) (*lintCache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("crumblint: cache dir: %w", err)
	}
	h := sha256.New()
	fmt.Fprintln(h, cacheSalt)
	fmt.Fprintln(h, runtime.Version())
	names := make([]string, 0, len(analyzers))
	byName := make(map[string]string, len(analyzers))
	for _, a := range analyzers {
		v := a.Version
		if v == "" {
			v = "v0"
		}
		names = append(names, a.Name)
		byName[a.Name] = v
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s@%s\n", n, byName[n])
	}
	return &lintCache{
		dir:        dir,
		configHash: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// key computes the cache key for a unit, hashing source bytes and the
// dependency fact sets obtained through factsFor (which the scheduler
// guarantees are complete by the time the unit runs).
func (c *lintCache) key(u unit, factsFor func(string) *analysis.FactSet) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, c.configHash)
	fmt.Fprintln(h, u.id)
	fmt.Fprintln(h, u.goVersion)
	for _, name := range u.goFiles {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s %x\n", name, sum)
	}
	for _, d := range u.deps {
		var factHash [32]byte
		if fs := factsFor(d); fs != nil {
			enc, err := fs.Encode()
			if err != nil {
				return "", err
			}
			factHash = sha256.Sum256(enc)
		}
		fmt.Fprintf(h, "dep %s %x\n", d, factHash)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// lookup returns the unit's cache key and, on a hit, its decoded
// findings and facts. A corrupt or unreadable entry is a miss.
func (c *lintCache) lookup(u unit, factsFor func(string) *analysis.FactSet) (key string, hit bool, fs []finding, facts *analysis.FactSet) {
	key, err := c.key(u, factsFor)
	if err != nil {
		return "", false, nil, nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return key, false, nil, nil
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return key, false, nil, nil
	}
	facts, err = analysis.DecodeFactSet(e.Facts)
	if err != nil {
		return key, false, nil, nil
	}
	for _, cf := range e.Findings {
		f := finding{analyzer: cf.Analyzer, message: cf.Message}
		f.pos.Filename, f.pos.Line, f.pos.Column = cf.File, cf.Line, cf.Column
		f.end.Filename, f.end.Line, f.end.Column = cf.EndFile, cf.EndLine, cf.EndCol
		fs = append(fs, f)
	}
	return key, true, fs, facts
}

// store writes a unit's results under key. Failures are deliberately
// swallowed: a broken cache must never break the lint.
func (c *lintCache) store(key string, fs []finding, facts *analysis.FactSet) {
	enc, err := facts.Encode()
	if err != nil {
		return
	}
	e := cacheEntry{Facts: enc}
	for _, f := range fs {
		e.Findings = append(e.Findings, cachedFinding{
			Analyzer: f.analyzer,
			File:     f.pos.Filename, Line: f.pos.Line, Column: f.pos.Column,
			EndFile: f.end.Filename, EndLine: f.end.Line, EndCol: f.end.Column,
			Message: f.message,
		})
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return
	}
	// Atomic publish; concurrent writers race benignly.
	_ = runio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func (c *lintCache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}
