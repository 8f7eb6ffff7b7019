package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// The on-disk codec. Every artifact a store persists — its manifest
// document (WalksFormat), its walk segments (SegmentFormat) and its
// segment index (segIdxFormat), the last two append-only JSONL
// line files — opens with the same versioned Header, so format, version
// and seed validation live in exactly one place.
//
// Durability (format version 2, DESIGN.md §12): every record is
// written as a CRC32-checksummed, length-prefixed frame, so readers
// can tell a *torn tail* (a write interrupted by a crash — the partial
// final record is dropped and the file truncated back to its last
// complete record) from *mid-file corruption* (bit rot or an overwrite
// — the file is quarantined to "<path>.corrupt" and a typed error
// carrying the damaged offset and record index is surfaced; damage is
// never silently skipped). An unframed file (the pre-framing v1 plain
// JSONL) is corrupt and quarantined like any other. Appends never
// fsync: a walk a crash loses is re-crawled on resume, byte for byte.
// Sync and Close fsync a line file, and finalized documents land via
// temp-file + fsync + atomic rename (WriteFileAtomic), so a saved run
// is either completely present or absent — never half-written.
//
// Raw appends: LineFile.Append encodes a value with json.Marshal;
// LineFile.appendRaw takes a payload its caller has already encoded and
// frames it as it is. The payload must be one JSON value with no raw
// newline (encoding/json never writes one), for the frame is a line and
// readers split on newlines; nothing checks this. A payload equal to
// json.Marshal's bytes for v gives exactly the line Append(v) writes,
// and raw appends are numbered and hooked like any other.

// Artifact format identifiers.
const (
	// WalksFormat is a run store's manifest document. (Before every
	// store was a segment directory it also named a line-file store: a
	// manifest record followed by one framed record per walk. Those
	// files are no longer read.)
	WalksFormat = "crumbcruncher/run-walks"
	// SegmentFormat is one walk segment of a run store.
	SegmentFormat = "crumbcruncher/run-segment"
	// segIdxFormat is a run store's sidecar index: one record per
	// sealed segment, mapping walk indices to segment files.
	segIdxFormat = "crumbcruncher/run-segment-index"
)

// Header is the versioned identity every persisted artifact starts
// with: the first line of a line file, or top-level fields of a JSON
// document. The seed ties an artifact to the exact deterministic world
// it was recorded in.
type Header struct {
	Format  string `json:"format,omitempty"`
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
}

// check validates h against the expected header: format and version
// must match exactly. A zero want.Seed skips the seed comparison — used
// when the seed is not known until the document is decoded.
func (h Header) check(want Header) error {
	if h.Format != want.Format {
		return fmt.Errorf("runstore: format %q, want %q", h.Format, want.Format)
	}
	if h.Version != want.Version {
		return fmt.Errorf("runstore: %s version %d, want %d", want.Format, h.Version, want.Version)
	}
	if want.Seed != 0 && h.Seed != want.Seed {
		return fmt.Errorf("runstore: %s recorded for seed %d, want seed %d", want.Format, h.Seed, want.Seed)
	}
	return nil
}

// --- Damage classification ---------------------------------------------------

// errTorn marks a record that was truncated by an interrupted write: a
// crash landed mid-append and only a prefix of the record reached the
// disk. Line files recover from torn tails automatically (the partial
// record is dropped and the file truncated); the sentinel only surfaces
// for single-document artifacts, which have nothing left to recover.
var errTorn = errors.New("runstore: torn write")

// ErrCorrupt marks damage that truncation cannot explain — a bit flip,
// an overwrite, a record mangled in the middle of the file. Corrupt
// artifacts are never silently skipped: line files are quarantined to
// "<path>.corrupt" and the error carries the damaged location.
var ErrCorrupt = errors.New("runstore: corrupt record")

// DamageError is the typed error for a damaged artifact. It wraps
// errTorn or ErrCorrupt (test with errors.Is) and pins the damage to a
// byte offset and record index. For quarantined line files, Quarantined
// is the path the damaged file was moved to.
type DamageError struct {
	Format string // artifact format identifier
	Path   string // original path ("" when reading a stream)
	// Offset is the byte offset of the damaged frame within the file
	// (-1: unknown).
	Offset int64
	// Record is the damaged record's index; the header line is record 0,
	// entries count from 1 (-1: unknown).
	Record int
	// Quarantined is where the damaged file was moved ("" if it was not).
	Quarantined string
	kind        error // errTorn or ErrCorrupt
	// check, when non-nil, means the bytes were intact but the header
	// identified a different artifact — a caller mistake, not damage.
	check error
}

func (e *DamageError) Error() string {
	what := "torn"
	if e.kind == ErrCorrupt {
		what = "corrupt"
	}
	msg := fmt.Sprintf("runstore: %s: %s", e.Format, what)
	if e.Record >= 0 {
		msg += fmt.Sprintf(" record %d", e.Record)
	}
	if e.Offset >= 0 {
		msg += fmt.Sprintf(" at byte offset %d", e.Offset)
	}
	if e.Path != "" {
		msg += " in " + e.Path
	}
	if e.Quarantined != "" {
		msg += " (quarantined to " + e.Quarantined + ")"
	}
	return msg
}

// Unwrap exposes the errTorn / ErrCorrupt sentinel for errors.Is.
func (e *DamageError) Unwrap() error { return e.kind }

// quarantine moves the damaged artifact at path — a file, or a whole
// store directory — aside to "<path>.corrupt", replacing an earlier
// quarantine there, so nothing reads past the damage and path is free
// for a fresh start. It returns where the artifact went.
func quarantine(path string) (string, error) {
	q := path + ".corrupt"
	if err := os.RemoveAll(q); err != nil {
		return "", err
	}
	if err := os.Rename(path, q); err != nil {
		return "", err
	}
	return q, nil
}

// newCorruptError builds a DamageError wrapping ErrCorrupt for damage
// detected outside this package's own readers — e.g. a compressed run
// segment whose bytes fail verification after decompression.
func newCorruptError(format, path, quarantined string) *DamageError {
	return &DamageError{Format: format, Path: path, Quarantined: quarantined, Offset: -1, Record: -1, kind: ErrCorrupt}
}

// --- Documents ---------------------------------------------------------------

// WriteDocument writes v as a single framed JSON document: one frame
// line whose payload is the document. v is expected to carry (embed) a
// Header so readDocument can validate it later.
func WriteDocument(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runstore: encode document: %w", err)
	}
	_, err = w.Write(appendFrame(nil, payload))
	return err
}

// readDocument reads one whole JSON document from r, validates its
// framing and its top-level header fields against want, and unmarshals
// the document into v. A truncated document returns a DamageError
// wrapping errTorn; a checksum mismatch or a missing frame one
// wrapping ErrCorrupt.
func readDocument(r io.Reader, want Header, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("runstore: read %s: %w", want.Format, err)
	}
	payload, err := documentPayload(data, want.Format)
	if err != nil {
		return err
	}
	var h Header
	if err := json.Unmarshal(payload, &h); err != nil {
		return fmt.Errorf("runstore: decode %s: %w", want.Format, err)
	}
	if err := h.check(want); err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("runstore: decode %s: %w", want.Format, err)
	}
	return nil
}

// documentPayload unwraps a document's frame, verifying length and
// checksum, and returns the raw JSON payload. An unframed document is
// corrupt. The format names the artifact in damage errors.
func documentPayload(data []byte, format string) ([]byte, error) {
	line := data
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	payload, kind := parseFrame(line)
	switch kind {
	case frameOK:
		return payload, nil
	case frameShort:
		return nil, &DamageError{Format: format, Offset: 0, Record: 0, kind: errTorn}
	default:
		return nil, &DamageError{Format: format, Offset: 0, Record: 0, kind: ErrCorrupt}
	}
}

// WriteFileAtomic writes a file through a temp-file + rename so the
// path never holds a half-written artifact: either the complete, synced
// content is visible under path, or the previous content (or absence)
// is. write receives the temp file's writer.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: atomic write %s: %w", path, err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("runstore: atomic write %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("runstore: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("runstore: atomic write %s: %w", path, err)
	}
	return nil
}

// splitPath is filepath.Split without pulling the import into the hot
// path signature; it keeps the temp file in the target's directory so
// the final rename never crosses filesystems.
func splitPath(path string) (dir, base string) {
	i := len(path) - 1
	for i >= 0 && !os.IsPathSeparator(path[i]) {
		i--
	}
	if i < 0 {
		return ".", path
	}
	return path[:i+1], path[i+1:]
}
