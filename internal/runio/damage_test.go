// Package runio holds the black-box conformance tests of the framed
// line-file format that internal/runstore owns: the damage matrix over
// every frame boundary, the FuzzRecords frame-decoder target and the
// FuzzOpenReadOnly store-open target. They drive the codec only
// through runstore's exported surface.
package runio_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crumbcruncher/internal/runstore"
)

// framePrefixLen is the fixed length of a record's frame prefix,
// '!' + 8 hex CRC + '!' + 8 hex length + '!': part of the on-disk
// format the damage rows aim at.
const framePrefixLen = 19

// seedFile writes a framed line file with a header and n small entries,
// returning its path and the byte offsets where each record's frame
// starts (offsets[0] is the header).
func seedFile(t testing.TB, dir, format string, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(dir, "artifact.jsonl")
	hdr := runstore.Header{Format: format, Version: 1, Seed: 42}
	lf, _, err := runstore.OpenLineFile(path, hdr)
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
	offsets := recordOffsets(data)
	if len(offsets) != n+1 {
		t.Fatalf("seeded %d records, found %d offsets", n+1, len(offsets))
	}
	return path, offsets
}

// recordOffsets returns the byte offsets where each line of data
// starts: offsets[0] is the header.
func recordOffsets(data []byte) []int64 {
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
	return offsets
}

// damageFormats are the header formats TestDamageMatrix damages (and
// FuzzRecords seeds with). The frame codec does not depend on the
// format, so besides the store's three the matrix keeps two labels no
// artifact carries any more: the single-document run, which only GET
// /runs/{id} still serves, and the server's former run index. Every
// row keeps its expectation.
var damageFormats = []string{"crumbcruncher/run", runstore.WalksFormat, runstore.SegmentFormat, "crumbcruncher/run-segment-index", "crumbcruncher/run-index"}

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

				hdr := runstore.Header{Format: format, Version: 1, Seed: 42}
				lf, got, err := runstore.OpenLineFile(path, hdr)

				if tc.wantEntries >= 0 {
					if err != nil {
						t.Fatalf("torn damage did not recover: %v", err)
					}
					defer lf.Close()
					if len(got) != tc.wantEntries {
						t.Fatalf("recovered %d entries, want %d", len(got), tc.wantEntries)
					}
					if tc.wantEntries > 0 {
						if rec := lf.Recovery(); !rec.DroppedTail || rec.Records != tc.wantEntries {
							t.Fatalf("recovery = %+v, want a dropped tail and %d records", rec, tc.wantEntries)
						}
					}
					return
				}

				var dmg *runstore.DamageError
				if !errors.As(err, &dmg) || !errors.Is(err, runstore.ErrCorrupt) {
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
			})
		}
	}
}
