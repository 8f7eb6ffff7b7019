package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// LineFile is an append-only JSONL artifact whose first line is a
// validated Header. Every record is framed (format v2: CRC32-checksummed
// and length-prefixed). Opening an existing file replays its entry
// lines, recovering from a torn tail (truncate back to the last
// complete record) and quarantining mid-file corruption. Append is safe
// for concurrent use.
type LineFile struct {
	mu     sync.Mutex
	f      *os.File
	format string

	seq     uint64 // records written through this handle (header = 0)
	syncSeq uint64 // fsyncs attempted through this handle

	frame []byte // the frame being written, reused across appends

	syncErr  error // sticky: first fsync failure, surfaced by Close
	crashed  error // sticky: the fault hook abandoned this writer
	closed   bool
	recovery Recovery
}

// Recovery describes what opening an existing artifact had to repair.
// The zero value means the file was intact.
type Recovery struct {
	// DroppedTail reports that a torn final record was dropped and the
	// file truncated back to its last complete record.
	DroppedTail bool
	// TornBytes is how many bytes of partial record the truncation
	// removed.
	TornBytes int64
	// Records is how many complete records survived the recovery
	// (counted only when there was damage to recover from).
	Records int
}

// OpenLineFile opens (or creates) the JSONL artifact at path. An
// existing file's header must pass check against want; its entry lines
// are returned raw, in file order, for the caller to decode. The
// entries alias one buffer holding the file's bytes, which nothing
// writes again.
//
// Damage handling: a torn tail — a final record a crash left
// incomplete — is dropped and the file truncated back to its last
// complete record, so later appends continue from a clean boundary
// (LineFile.Recovery reports what happened). Mid-file corruption — a
// record whose checksum or structure is wrong even though all its
// bytes are present — quarantines the whole file to "<path>.corrupt"
// and returns a *DamageError wrapping ErrCorrupt; the caller decides
// what to do without it. A fresh — or entry-less — file is truncated
// and given the want header.
func OpenLineFile(path string, want Header) (*LineFile, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runstore: open %s: %w", want.Format, err)
	}
	fail := func(err error) (*LineFile, [][]byte, error) {
		f.Close()
		return nil, nil, err
	}

	size := 0
	if fi, err := f.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
		size = int(fi.Size())
	}
	data, err := readSized(f, size)
	if err != nil {
		return fail(fmt.Errorf("runstore: %s %s: %w", want.Format, path, err))
	}
	sc, err := scanFile(data, path, want)
	if err != nil {
		return fail(err)
	}
	if sc.damage != nil {
		// Torn tail: recover by truncating back to the last complete
		// record; everything before it is intact and kept.
		if err := f.Truncate(sc.goodEnd); err != nil {
			return fail(fmt.Errorf("runstore: %s %s: truncate torn tail: %w", want.Format, path, err))
		}
	}

	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(fmt.Errorf("runstore: %s %s: %w", want.Format, path, err))
	}
	lf := &LineFile{
		f:      f,
		format: want.Format,
	}
	if sc.damage != nil {
		lf.recovery = Recovery{DroppedTail: true, TornBytes: int64(len(data)) - sc.goodEnd, Records: len(sc.entries)}
	}
	if len(sc.entries) == 0 {
		// Fresh (or header-only) file: (re)write the header, framed.
		if err := f.Truncate(0); err != nil {
			return fail(fmt.Errorf("runstore: %s %s: %w", want.Format, path, err))
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fail(fmt.Errorf("runstore: %s %s: %w", want.Format, path, err))
		}
		if err := lf.appendValue(want); err != nil {
			return fail(fmt.Errorf("runstore: %s %s: %w", want.Format, path, err))
		}
	} else {
		lf.seq = uint64(len(sc.entries)) + 1 // header + replayed entries
	}
	return lf, sc.entries, nil
}

// readLineFile reads the line file at path without writing it: a torn
// tail is left on disk and out of the returned entries, which are
// OpenLineFile's for the same bytes. Corruption and a wrong header fail
// as they do in OpenLineFile, quarantine included.
func readLineFile(path string, want Header) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %s %s: %w", want.Format, path, err)
	}
	sc, err := scanFile(data, path, want)
	if err != nil {
		return nil, err
	}
	return sc.entries, nil
}

// scanFile scans the bytes of the line file at path. A wrong header
// returns the plain check error. Mid-file corruption quarantines the
// file to "<path>.corrupt" — so nothing ever reads past it — and
// returns the DamageError naming where it went. A torn tail is no
// error: the result's damage reports it, and its entries are the
// intact records before it.
func scanFile(data []byte, path string, want Header) (scanResult, error) {
	sc := scanLines(data, want)
	if sc.damage == nil {
		return sc, nil
	}
	sc.damage.Path = path
	if sc.damage.check != nil {
		// Intact bytes, wrong artifact (format/version/seed): the
		// caller's mistake, never quarantine material.
		return sc, sc.damage.check
	}
	if errors.Is(sc.damage, ErrCorrupt) {
		q, rerr := quarantine(path)
		if rerr != nil {
			return sc, fmt.Errorf("runstore: quarantine %s: %v (damage: %w)", path, rerr, sc.damage)
		}
		sc.damage.Quarantined = q
		return sc, sc.damage
	}
	return sc, nil
}

// scanResult is one pass over a line file's bytes.
type scanResult struct {
	entries [][]byte
	goodEnd int64 // byte offset just past the last intact record
	damage  *DamageError
}

// scanLines walks the file's lines, validating each record's frame and
// classifying the first damage it meets: torn (only possible at the
// tail) or corrupt. An unframed line is corrupt wherever it appears.
// Entries are subslices of data, capped so that appending to one
// copies it rather than overwriting the next.
func scanLines(data []byte, want Header) scanResult {
	var res scanResult
	off := int64(0)
	rec := 0
	for int(off) < len(data) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		var line []byte
		var end int64
		if nl < 0 {
			line, end = rest, int64(len(data))
		} else {
			line, end = rest[:nl], off+int64(nl)+1
		}
		last := int(end) == len(data)

		payload, kind := parseFrame(line)
		if kind == frameOK && nl < 0 {
			// A record without its trailing newline parsed whole, but
			// the terminator a complete append always writes is gone:
			// the write was cut exactly at the payload boundary. Torn.
			kind = frameShort
		}
		if kind != frameOK {
			res.damage = &DamageError{Format: want.Format, Offset: off, Record: rec, kind: errTorn}
			if !last || kind == frameBad {
				res.damage.kind = ErrCorrupt
			}
			return res
		}
		if rec == 0 {
			var h Header
			if err := json.Unmarshal(payload, &h); err != nil {
				res.damage = &DamageError{Format: want.Format, Offset: off, Record: 0, kind: ErrCorrupt}
				return res
			}
			if err := h.check(want); err != nil {
				// A well-formed header for the wrong artifact is not
				// damage — it is the caller's mistake. Report it as a
				// plain error by reusing the corrupt path with no
				// quarantine: the scan loop's caller maps this.
				res.damage = &DamageError{Format: want.Format, Offset: off, Record: 0, kind: ErrCorrupt}
				res.damage.check = err
				return res
			}
		} else {
			res.entries = append(res.entries, payload[:len(payload):len(payload)])
		}
		res.goodEnd = end
		off = end
		rec++
	}
	return res
}

// Recovery reports what opening the file had to repair (the zero value
// when it was intact). Safe on a nil receiver.
func (lf *LineFile) Recovery() Recovery {
	if lf == nil {
		return Recovery{}
	}
	return lf.recovery
}

// Append encodes v as one record line, framed with a CRC32 checksum
// and length prefix. It never fsyncs: Sync and Close do. Safe for
// concurrent use and on a nil receiver.
func (lf *LineFile) Append(v any) error {
	if lf == nil {
		return nil
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if err := lf.openLocked(); err != nil {
		return err
	}
	return lf.appendValue(v)
}

// appendRaw appends payload, one JSON value that is already encoded and
// holds no raw newline, as one record line: the line Append writes for
// a value json.Marshal encodes to exactly these bytes. The payload is
// framed as it is, neither validated nor re-encoded. Crash hooks, record
// numbering apply as in Append. Safe for concurrent
// use and on a nil receiver.
func (lf *LineFile) appendRaw(payload []byte) error {
	if lf == nil {
		return nil
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if err := lf.openLocked(); err != nil {
		return err
	}
	return lf.appendPayload(payload)
}

// openLocked fails once the file is closed. Callers hold mu.
func (lf *LineFile) openLocked() error {
	if lf.closed || lf.f == nil {
		return errors.New("runstore: append to closed line file")
	}
	return nil
}

// appendValue encodes and writes one record; callers hold mu (or own
// lf exclusively during open).
func (lf *LineFile) appendValue(v any) error {
	if lf.crashed != nil {
		return lf.crashed
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runstore: %s: encode record: %w", lf.format, err)
	}
	return lf.appendPayload(payload)
}

// appendPayload frames and writes one encoded record; callers hold mu (or own lf exclusively during open). The
// frame is built in lf.frame, which each append reuses.
func (lf *LineFile) appendPayload(payload []byte) error {
	if lf.crashed != nil {
		return lf.crashed
	}
	lf.frame = appendFrame(lf.frame[:0], payload)
	line := lf.frame

	var crash error
	if fault := currentFault(); fault != nil {
		line, crash = fault.BeforeAppend(lf.format, lf.seq, line)
	}
	lf.seq++
	if len(line) > 0 {
		if _, werr := lf.f.Write(line); werr != nil && crash == nil {
			return fmt.Errorf("runstore: %s: write record: %w", lf.format, werr)
		}
	}
	if crash != nil {
		lf.crashed = crash
		return crash
	}
	return nil
}

// Sync fsyncs the file now. Failures are also remembered and surfaced
// by Close, so callers that only check Close still observe them. Safe on a nil receiver.
func (lf *LineFile) Sync() error {
	if lf == nil {
		return nil
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.closed || lf.f == nil {
		return errors.New("runstore: sync of closed line file")
	}
	return lf.syncLocked()
}

func (lf *LineFile) syncLocked() error {
	if lf.crashed != nil {
		return lf.crashed
	}
	if fault := currentFault(); fault != nil {
		if err := fault.BeforeSync(lf.format, lf.syncSeq); err != nil {
			lf.syncSeq++
			lf.crashed = err
			return err
		}
	}
	lf.syncSeq++
	if err := lf.f.Sync(); err != nil {
		if lf.syncErr == nil {
			lf.syncErr = err
		}
		return fmt.Errorf("runstore: %s: sync: %w", lf.format, err)
	}
	return nil
}

// Close syncs and closes the file. Any fsync failure during the file's
// lifetime — not just the final one — is surfaced here, so a caller
// that only checks Close still learns its acknowledged records may not
// have hit the disk. Close is idempotent: the second and later calls
// return nil without touching the (already released) descriptor. Safe
// on a nil receiver.
func (lf *LineFile) Close() error {
	if lf == nil {
		return nil
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.closed || lf.f == nil {
		return nil
	}
	lf.closed = true
	var err error
	if lf.crashed == nil {
		if serr := lf.syncLocked(); serr != nil {
			err = serr
		}
	}
	if cerr := lf.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil && lf.syncErr != nil {
		err = fmt.Errorf("runstore: %s: earlier sync failed: %w", lf.format, lf.syncErr)
	}
	lf.f = nil
	return err
}

// Records parses an in-memory line-file image — a header line followed
// by entry records — validating every frame and the header against
// want, and returns the raw entry payloads in order. The payloads alias
// data, so the caller must not write to data while it holds them.
// Unlike OpenLineFile there is no file to repair, so any damage —
// including a torn tail — surfaces as a *DamageError; callers holding
// a sealed artifact (e.g. a compressed run segment) treat every kind as
// corruption. An empty image lacks even its header, so it is torn.
func Records(data []byte, want Header) ([][]byte, error) {
	if len(data) == 0 {
		return nil, &DamageError{Format: want.Format, Offset: 0, Record: 0, kind: errTorn}
	}
	sc := scanLines(data, want)
	if sc.damage != nil {
		if sc.damage.check != nil {
			return nil, sc.damage.check
		}
		return nil, sc.damage
	}
	return sc.entries, nil
}

// readSized reads r to EOF into a buffer with room for size bytes plus
// the final read that reports EOF, as os.ReadFile sizes its buffer from
// Stat: a reader that yields size bytes costs one allocation. One that
// yields more grows the buffer as io.ReadAll does.
func readSized(r io.Reader, size int) ([]byte, error) {
	if size < 512 {
		size = 512
	}
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
