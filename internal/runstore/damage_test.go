package runstore

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestDocumentDamage covers the single-document artifact: truncation is
// torn, a flipped byte or a missing frame is corrupt, all typed.
func TestDocumentDamage(t *testing.T) {
	var buf bytes.Buffer
	doc := struct {
		Header
		Value int `json:"value"`
	}{Header{Format: WalksFormat, Version: manifestVersion, Seed: 5}, 99}
	if err := WriteDocument(&buf, doc); err != nil {
		t.Fatal(err)
	}
	intact := buf.Bytes()
	want := Header{Format: WalksFormat, Version: manifestVersion}

	var out struct{ Value int }
	if err := readDocument(bytes.NewReader(intact), want, &out); err != nil || out.Value != 99 {
		t.Fatalf("intact document: %v (value %d)", err, out.Value)
	}

	torn := intact[:len(intact)/2]
	err := readDocument(bytes.NewReader(torn), want, &out)
	if !errors.Is(err, errTorn) {
		t.Fatalf("truncated document: %v, want errTorn", err)
	}

	flipped := append([]byte(nil), intact...)
	flipped[framePrefixLen+5] ^= 0x40
	err = readDocument(bytes.NewReader(flipped), want, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped document: %v, want ErrCorrupt", err)
	}

	unframed := intact[framePrefixLen:]
	err = readDocument(bytes.NewReader(unframed), want, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unframed document: %v, want ErrCorrupt", err)
	}
}

// TestCloseIdempotentAndSurfacesSync: double Close is a no-op; Close
// reports earlier Sync errors even when the final sync succeeds.
func TestCloseIdempotentAndSurfacesSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	hdr := Header{Format: WalksFormat, Version: 1, Seed: 1}
	lf, _, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if err := lf.Append(1); err == nil {
		t.Fatal("append after Close succeeded")
	}
}
