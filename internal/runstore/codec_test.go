package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestHeaderCheck(t *testing.T) {
	want := Header{Format: WalksFormat, Version: 1, Seed: 7}
	cases := []struct {
		name string
		h    Header
		ok   bool
	}{
		{"exact", Header{Format: WalksFormat, Version: 1, Seed: 7}, true},
		{"no format", Header{Version: 1, Seed: 7}, false},
		{"no header fields", Header{}, false},
		{"wrong format", Header{Format: SegmentFormat, Version: 1, Seed: 7}, false},
		{"wrong version", Header{Format: WalksFormat, Version: 2, Seed: 7}, false},
		{"wrong seed", Header{Format: WalksFormat, Version: 1, Seed: 8}, false},
	}
	for _, tc := range cases {
		if err := tc.h.check(want); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// A zero want.Seed skips the seed comparison.
	h := Header{Format: WalksFormat, Version: manifestVersion, Seed: 42}
	if err := h.check(Header{Format: WalksFormat, Version: manifestVersion}); err != nil {
		t.Errorf("zero want.Seed should skip the seed check: %v", err)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	type doc struct {
		Header
		Payload string `json:"payload"`
	}
	var buf bytes.Buffer
	in := doc{Header: Header{Format: WalksFormat, Version: manifestVersion, Seed: 3}, Payload: "hello"}
	if err := WriteDocument(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out doc
	if err := readDocument(&buf, Header{Format: WalksFormat, Version: manifestVersion}, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}

	// Version mismatch is rejected.
	buf.Reset()
	if err := WriteDocument(&buf, in); err != nil {
		t.Fatal(err)
	}
	if err := readDocument(&buf, Header{Format: WalksFormat, Version: manifestVersion + 1}, &out); err == nil {
		t.Fatal("version mismatch not rejected")
	}

	// A document without header fields is not the artifact asked for.
	buf.Reset()
	if err := WriteDocument(&buf, struct {
		Payload string `json:"payload"`
	}{"old"}); err != nil {
		t.Fatal(err)
	}
	if err := readDocument(&buf, Header{Format: WalksFormat, Version: manifestVersion}, &out); err == nil {
		t.Fatal("headerless document not rejected")
	}
}

func TestLineFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entries.jsonl")
	hdr := Header{Format: WalksFormat, Version: 1, Seed: 5}

	lf, entries, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh file has %d entries", len(entries))
	}
	type entry struct {
		N int `json:"n"`
	}
	for i := 0; i < 3; i++ {
		if err := lf.Append(entry{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all three entries come back; seed must match.
	lf2, entries, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer lf2.Close()
	if len(entries) != 3 {
		t.Fatalf("reopened file has %d entries, want 3", len(entries))
	}
	if _, _, err := OpenLineFile(path, Header{Format: WalksFormat, Version: 1, Seed: 6}); err == nil {
		t.Fatal("wrong seed not rejected")
	}
}

func TestLineFileDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	hdr := Header{Format: SegmentFormat, Version: 1, Seed: 9}
	lf, _, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	lf.Append(map[string]int{"n": 1})
	lf.Append(map[string]int{"n": 2})
	lf.Close()
	// Simulate a crash mid-write: chop the tail off the final record so
	// only part of its frame reached the disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	lf2, entries, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer lf2.Close()
	if len(entries) != 1 {
		t.Fatalf("torn tail not dropped: %d entries", len(entries))
	}
	rec := lf2.Recovery()
	if !rec.DroppedTail || rec.TornBytes == 0 {
		t.Fatalf("recovery not reported: %+v", rec)
	}
	// The truncation must leave a clean boundary: appends after recovery
	// read back whole.
	if err := lf2.Append(map[string]int{"n": 3}); err != nil {
		t.Fatal(err)
	}
	if err := lf2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("after recovery+append: %d entries, want 2", len(entries))
	}
}
