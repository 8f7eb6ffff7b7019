package runio_test

import (
	"bytes"
	"hash/crc32"
	"os"
	"strconv"
	"testing"

	"crumbcruncher/internal/runstore"
)

// FuzzRecords feeds arbitrary line-file images to runstore.Records,
// the frame decoder every store read goes through (a sealed segment's
// inflated bytes, an open's replay). Whatever it returns must be what
// the image framed: no panic, and every returned payload is line k+1
// of the image (line 0 is the header), whose declared checksum and
// length it matches. The seeds are TestDamageMatrix's intact and damaged files.
func FuzzRecords(f *testing.F) {
	for _, format := range damageFormats {
		path, offsets := seedFile(f, f.TempDir(), format, damageEntries)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, format)
		for _, tc := range damageCases {
			f.Add(tc.damage(append([]byte(nil), data...), offsets), format)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, format string) {
		entries, err := runstore.Records(data, runstore.Header{Format: format, Version: 1, Seed: 42})
		if err != nil {
			if entries != nil {
				t.Fatalf("Records returned %d entries with error %v", len(entries), err)
			}
			return
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		if len(lines) != len(entries)+1 {
			t.Fatalf("Records returned %d entries from %d lines", len(entries), len(lines))
		}
		for k, payload := range entries {
			line := bytes.TrimSuffix(lines[k+1], []byte("\n"))
			if len(line) < framePrefixLen || !bytes.Equal(line[framePrefixLen:], payload) {
				t.Fatalf("entry %d is not line %d's payload:\n line %q\nentry %q", k, k+1, line, payload)
			}
			sum, serr := strconv.ParseUint(string(line[1:9]), 16, 32)
			size, lerr := strconv.ParseUint(string(line[10:18]), 16, 32)
			if serr != nil || lerr != nil {
				t.Fatalf("entry %d returned from an unparseable frame prefix %q", k, line[:framePrefixLen])
			}
			if uint32(sum) != crc32.ChecksumIEEE(payload) || int(size) != len(payload) {
				t.Fatalf("entry %d returned although its frame (crc %08x, length %d) does not match its payload", k, sum, size)
			}
		}
	})
}
