package runio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crumbcruncher/internal/telemetry"
)

// seedFile writes a framed line file with a header and n small entries,
// returning its path and the byte offsets where each record's frame
// starts (offsets[0] is the header).
func seedFile(t testing.TB, dir, format string, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(dir, "artifact.jsonl")
	hdr := Header{Format: format, Version: 1, Seed: 42}
	lf, _, err := OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := lf.Append(map[string]int{"index": i, "value": i * 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0}
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
		if off < len(data) {
			offsets = append(offsets, int64(off))
		}
	}
	if len(offsets) != n+1 {
		t.Fatalf("seeded %d records, found %d offsets", n+1, len(offsets))
	}
	return path, offsets
}

// damageFormats is every line-file artifact format TestDamageMatrix
// damages.
var damageFormats = []string{RunFormat, WalksFormat, SegmentFormat, SegmentIndexFormat, IndexFormat}

// damageEntries is how many entries each damaged file holds.
const damageEntries = 4

// damageCase is one row of the damage matrix.
type damageCase struct {
	name string
	// damage mutates the intact file bytes.
	damage func(data []byte, offsets []int64) []byte
	// wantEntries is how many entries survive a recovering open
	// (-1: the open must quarantine instead).
	wantEntries int
	// wantRecord is the damaged record index a quarantine reports.
	wantRecord int
}

// damageCases are the damage matrix's rows, shared with FuzzRecords as
// its seed corpus. Offsets index damageEntries+1 records.
var damageCases = []damageCase{
	{
		name:        "truncate mid final frame prefix",
		damage:      func(d []byte, off []int64) []byte { return d[:off[damageEntries]+3] },
		wantEntries: damageEntries - 1,
	},
	{
		name:        "truncate mid final payload",
		damage:      func(d []byte, off []int64) []byte { return d[:off[damageEntries]+framePrefixLen+4] },
		wantEntries: damageEntries - 1,
	},
	{
		name:        "truncate exactly before final newline",
		damage:      func(d []byte, off []int64) []byte { return d[:len(d)-1] },
		wantEntries: damageEntries - 1,
	},
	{
		name:        "truncate mid second entry",
		damage:      func(d []byte, off []int64) []byte { return d[:off[2]+5] },
		wantEntries: 1,
	},
	{
		name:        "truncate into header",
		damage:      func(d []byte, off []int64) []byte { return d[:7] },
		wantEntries: 0,
	},
	{
		name: "flip payload bit of entry 2",
		damage: func(d []byte, off []int64) []byte {
			out := append([]byte(nil), d...)
			out[off[2]+framePrefixLen+2] ^= 0x10
			return out
		},
		wantEntries: -1,
		wantRecord:  2,
	},
	{
		name: "flip checksum hex digit of entry 1",
		damage: func(d []byte, off []int64) []byte {
			out := append([]byte(nil), d...)
			out[off[1]+3] = 'x' // not a hex digit: frame structure broken
			return out
		},
		wantEntries: -1,
		wantRecord:  1,
	},
	{
		name: "flip header payload bit",
		damage: func(d []byte, off []int64) []byte {
			out := append([]byte(nil), d...)
			out[framePrefixLen+1] ^= 0x02
			return out
		},
		wantEntries: -1,
		wantRecord:  0,
	},
	{
		name: "overwrite mid-file frame mark",
		damage: func(d []byte, off []int64) []byte {
			out := append([]byte(nil), d...)
			out[off[3]] = '{' // record 3 no longer opens with the mark
			return out
		},
		wantEntries: -1,
		wantRecord:  3,
	},
	{
		name: "bare-JSONL v1 file",
		damage: func(d []byte, off []int64) []byte {
			var out []byte
			for _, line := range bytes.SplitAfter(d, []byte("\n")) {
				if len(line) > framePrefixLen {
					out = append(out, line[framePrefixLen:]...)
				}
			}
			return out
		},
		wantEntries: -1,
		wantRecord:  0,
	},
}

// TestDamageMatrix drives the torn-vs-corrupt classification across
// every artifact format and every frame boundary: truncations inside
// the final record recover (torn tail), truncations that amputate whole
// records plus a partial one recover to the last whole record, and bit
// flips anywhere quarantine (corrupt) with the damaged record pinned. A
// pre-framing v1 file (bare JSONL) is corrupt from its header on: it is
// quarantined whole, never truncated.
func TestDamageMatrix(t *testing.T) {
	for _, format := range damageFormats {
		for _, tc := range damageCases {
			t.Run(format+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				path, offsets := seedFile(t, dir, format, damageEntries)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				damaged := tc.damage(data, offsets)
				if err := os.WriteFile(path, damaged, 0o644); err != nil {
					t.Fatal(err)
				}

				tel := telemetry.New(nil, 1)
				hdr := Header{Format: format, Version: 1, Seed: 42}
				lf, got, err := OpenLineFileOpts(path, hdr, OpenOptions{Tel: tel})

				if tc.wantEntries >= 0 {
					if err != nil {
						t.Fatalf("torn damage did not recover: %v", err)
					}
					defer lf.Close()
					if len(got) != tc.wantEntries {
						t.Fatalf("recovered %d entries, want %d", len(got), tc.wantEntries)
					}
					if tc.wantEntries > 0 {
						if n := tel.Registry().Counter("runio.recovered_records").Value(); n != int64(tc.wantEntries) {
							t.Fatalf("runio.recovered_records = %d, want %d", n, tc.wantEntries)
						}
					}
					return
				}

				var dmg *DamageError
				if !errors.As(err, &dmg) || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("corruption not classified: %v", err)
				}
				if dmg.Record != tc.wantRecord {
					t.Fatalf("damage pinned to record %d, want %d", dmg.Record, tc.wantRecord)
				}
				if dmg.Offset != offsets[tc.wantRecord] {
					t.Fatalf("damage pinned to offset %d, want %d", dmg.Offset, offsets[tc.wantRecord])
				}
				if q, err := os.ReadFile(dmg.Quarantined); err != nil {
					t.Fatalf("quarantine file: %v", err)
				} else if !bytes.Equal(q, damaged) {
					t.Fatalf("quarantined %d bytes, want the damaged file's %d untouched", len(q), len(damaged))
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatal("damaged file left in place")
				}
				if n := tel.Registry().Counter("runio.quarantined_files").Value(); n != 1 {
					t.Fatalf("runio.quarantined_files = %d, want 1", n)
				}
			})
		}
	}
}

// TestDocumentDamage covers the single-document artifact: truncation is
// torn, a flipped byte or a missing frame is corrupt, all typed.
func TestDocumentDamage(t *testing.T) {
	var buf bytes.Buffer
	doc := struct {
		Header
		Value int `json:"value"`
	}{Header{Format: RunFormat, Version: RunVersion, Seed: 5}, 99}
	if err := WriteDocument(&buf, doc); err != nil {
		t.Fatal(err)
	}
	intact := buf.Bytes()
	want := Header{Format: RunFormat, Version: RunVersion}

	var out struct{ Value int }
	if err := ReadDocument(bytes.NewReader(intact), want, &out); err != nil || out.Value != 99 {
		t.Fatalf("intact document: %v (value %d)", err, out.Value)
	}

	torn := intact[:len(intact)/2]
	err := ReadDocument(bytes.NewReader(torn), want, &out)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("truncated document: %v, want ErrTorn", err)
	}

	flipped := append([]byte(nil), intact...)
	flipped[framePrefixLen+5] ^= 0x40
	err = ReadDocument(bytes.NewReader(flipped), want, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped document: %v, want ErrCorrupt", err)
	}

	unframed := intact[framePrefixLen:]
	err = ReadDocument(bytes.NewReader(unframed), want, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unframed document: %v, want ErrCorrupt", err)
	}
}

// TestSalvageLineFile recovers the records around a corrupt one.
func TestSalvageLineFile(t *testing.T) {
	dir := t.TempDir()
	path, offsets := seedFile(t, dir, WalksFormat, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[3]+framePrefixLen+1] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	hdr := Header{Format: WalksFormat, Version: 1, Seed: 42}
	entries, dropped, err := SalvageLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || dropped != 1 {
		t.Fatalf("salvaged %d dropped %d, want 4/1", len(entries), dropped)
	}

	// ReplaceLineFile persists the repair atomically and reopens.
	repaired := filepath.Join(dir, "repaired.jsonl")
	lf, err := ReplaceLineFile(repaired, hdr, entries, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenLineFile(repaired, hdr)
	if err != nil || len(got) != 4 {
		t.Fatalf("reopen repaired: %v (%d entries)", err, len(got))
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
