package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rawPayloads are canonical JSON values (as json.Marshal writes them),
// so Append(json.RawMessage(p)) re-encodes each to the same bytes.
var rawPayloads = []struct{ name, payload string }{
	{"empty-object", `{}`},
	{"nested", `{"a":[1,{"b":null,"c":[true,false]}],"d":{"e":-9223372036854775808,"f":1.5}}`},
	{"escaped", `{"s":"\u003cscript\u003e\u0026\"\\\n\t\u0000\u001f\u2028\ufffd","k\u0026":"\u00e9 é 😀"}`},
	// Over a MiB on its own: appends never fsync, whatever their size.
	{"large", `{"blob":"` + strings.Repeat("0123456789abcdef", (1<<20+4096)/16) + `"}`},
}

// syncRecorder is a faultHook that counts the appends of one format and
// records how many had happened at each fsync. With crashAt > 0 it tears
// that append to its first five bytes and abandons the writer.
type syncRecorder struct {
	crashAt int
	appends int
	syncsAt []int
}

var errRecorderCrash = errors.New("recorder: crash")

func (r *syncRecorder) BeforeAppend(format string, seq uint64, frame []byte) ([]byte, error) {
	r.appends++
	if r.appends == r.crashAt {
		return frame[:5], errRecorderCrash
	}
	return frame, nil
}

func (r *syncRecorder) BeforeSync(format string, syncSeq uint64) error {
	r.syncsAt = append(r.syncsAt, r.appends)
	return nil
}

// writeLines writes payloads to a fresh line file through appendRaw (raw) or Append of a json.RawMessage, with a
// syncRecorder installed, and returns the file's bytes and the recorder.
func writeLines(t *testing.T, raw bool, payloads [][]byte, crashAt int) ([]byte, *syncRecorder, error) {
	t.Helper()
	rec := &syncRecorder{crashAt: crashAt}
	SetFault(rec)
	defer SetFault(nil)
	path := filepath.Join(t.TempDir(), "lines.jsonl")
	lf, _, err := OpenLineFile(path, Header{Format: SegmentFormat, Version: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var appendErr error
	for _, p := range payloads {
		if raw {
			appendErr = lf.appendRaw(p)
		} else {
			appendErr = lf.Append(json.RawMessage(p))
		}
		if appendErr != nil {
			break
		}
	}
	lf.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, rec, appendErr
}

// TestAppendRawMatchesAppend pins appendRaw to Append: each payload, and
// all of them in one file, give byte-identical files, and neither kind
// of append fsyncs: the one fsync is Close's, after the last append.
func TestAppendRawMatchesAppend(t *testing.T) {
	var all [][]byte
	for _, tc := range rawPayloads {
		t.Run(tc.name, func(t *testing.T) {
			p := []byte(tc.payload)
			if canon, err := json.Marshal(json.RawMessage(p)); err != nil || !bytes.Equal(canon, p) {
				t.Fatalf("payload is not in json.Marshal's form (%v): %s", err, canon)
			}
			want, _, werr := writeLines(t, false, [][]byte{p}, 0)
			got, _, gerr := writeLines(t, true, [][]byte{p}, 0)
			if werr != nil || gerr != nil {
				t.Fatalf("Append: %v, appendRaw: %v", werr, gerr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("appendRaw wrote\n%.300q\nAppend wrote\n%.300q", got, want)
			}
		})
		all = append(all, []byte(tc.payload))
	}
	// Many small records: no record count fsyncs either.
	for i := 0; i < 40; i++ {
		all = append(all, []byte(rawPayloads[1].payload))
	}
	want, wrec, werr := writeLines(t, false, all, 0)
	got, grec, gerr := writeLines(t, true, all, 0)
	if werr != nil || gerr != nil {
		t.Fatalf("Append: %v, appendRaw: %v", werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appendRaw and Append wrote different files")
	}
	// Append 1 is the header, so Close's fsync follows append len(all)+1.
	closeOnly := []int{len(all) + 1}
	if !equalInts(grec.syncsAt, closeOnly) || !equalInts(wrec.syncsAt, closeOnly) {
		t.Fatalf("appendRaw fsynced after appends %v, Append after %v; want only Close's, %v", grec.syncsAt, wrec.syncsAt, closeOnly)
	}
}

// TestAppendRawFailures checks that appendRaw fails, as Append does,
// after Close and after a crash hook abandons the writer, and that a
// crashed raw append leaves the torn tail a crashed Append leaves.
func TestAppendRawFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.jsonl")
	lf, _, err := OpenLineFile(path, Header{Format: SegmentFormat, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lf.appendRaw([]byte(`{}`)); err == nil {
		t.Error("appendRaw after Close succeeded")
	}

	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`), []byte(`{"a":3}`), []byte(`{"a":4}`)}
	// Append 1 is the header, so crashAt 3 tears the second record.
	want, _, werr := writeLines(t, false, payloads, 3)
	got, _, gerr := writeLines(t, true, payloads, 3)
	if !errors.Is(gerr, errRecorderCrash) || !errors.Is(werr, errRecorderCrash) {
		t.Fatalf("crashed appendRaw = %v, Append = %v; want the crash", gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("crashed appendRaw left %q, Append %q", got, want)
	}

	// Once crashed, every later raw append fails with the crash.
	rec := &syncRecorder{crashAt: 2}
	SetFault(rec)
	defer SetFault(nil)
	lf, _, err = OpenLineFile(filepath.Join(t.TempDir(), "crash.jsonl"), Header{Format: SegmentFormat, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for i := 0; i < 2; i++ {
		if err := lf.appendRaw([]byte(`{}`)); !errors.Is(err, errRecorderCrash) {
			t.Fatalf("raw append %d after the crash point = %v, want the crash", i, err)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
