package runio_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"crumbcruncher/internal/crawler"
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

// FuzzOpenReadOnly places arbitrary bytes after a valid manifest, as a
// store's unsealed segment (asIndex false) or as its segment index
// (asIndex true, beside four intact sealed segments), then opens the
// store, scans it and closes it. Whatever the bytes, that never panics
// and changes nothing on disk: every file keeps its bytes, and the only
// move allowed is quarantine, which takes a corrupt file to
// "<name>.corrupt" unchanged. Every walk the scan returns comes from a
// record whose frame checksum verifies: an unsealed segment's walk is
// the walk of such a line, and a sealed segment's walk is one an index
// line with a verifying frame lists. The seeds are TestDamageMatrix's
// rows and the rows of runstore's TestSegmentDamageMatrix that apply
// to a line file (its ISIZE rows damage only a gzip trailer).
func FuzzOpenReadOnly(f *testing.F) {
	segTmpl := storeTemplate(f, 4, false)
	idxTmpl := storeTemplate(f, 4*256, true)
	for _, asIndex := range []bool{false, true} {
		data := segTmpl[segFile]
		if asIndex {
			data = idxTmpl[indexFile]
		}
		f.Add(data, asIndex)
		offsets := recordOffsets(data)
		for _, tc := range damageCases {
			f.Add(tc.damage(append([]byte(nil), data...), offsets), asIndex)
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40
		lines := bytes.SplitAfter(data, []byte("\n"))
		f.Add(data[:len(data)/2], asIndex)
		f.Add(flipped, asIndex)
		f.Add(bytes.Join(append(lines[:2:2], lines[3:]...), nil), asIndex)
		f.Add([]byte("!deadbeef!00000010!{\"not\":\"valid\"}\n"), asIndex)
	}
	f.Fuzz(func(t *testing.T, data []byte, asIndex bool) {
		dir := t.TempDir()
		tmpl, name := segTmpl, segFile
		if asIndex {
			tmpl, name = idxTmpl, indexFile
		}
		before := maps.Clone(tmpl)
		before[name] = data
		for n, b := range before {
			if err := os.WriteFile(filepath.Join(dir, n), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var walks []*crawler.Walk
		if st, err := runstore.Open(dir); err == nil {
			cur := st.Iter()
			for {
				w, err := cur.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err == nil {
					walks = append(walks, w)
				}
			}
			cur.Close()
			st.Close()
		}

		after := readDir(t, dir)
		for n, b := range before {
			got, ok := after[n]
			if !ok {
				n += ".corrupt"
				got, ok = after[n]
			}
			if !ok || !bytes.Equal(got, b) {
				t.Fatalf("%s: %d bytes before the open, %d after (present: %v)", n, len(b), len(got), ok)
			}
			delete(after, n)
		}
		for n := range after {
			t.Fatalf("the open created %s", n)
		}

		if len(walks) == 0 {
			return
		}
		if asIndex {
			listed := listedIndices(data)
			for _, w := range walks {
				if !listed[w.Index] {
					t.Fatalf("walk %d returned, but no index line with a verifying frame lists it", w.Index)
				}
				if !reflect.DeepEqual(w, templateWalk(w.Index)) {
					t.Fatalf("walk %d returned as %+v, not as its sealed segment holds it", w.Index, w)
				}
			}
			return
		}
		held := verifiedWalks(data)
		for _, w := range walks {
			if !slices.ContainsFunc(held, func(h *crawler.Walk) bool { return reflect.DeepEqual(h, w) }) {
				t.Fatalf("walk %d returned, but no segment line with a verifying frame holds it", w.Index)
			}
		}
	})
}

// The store files FuzzOpenReadOnly replaces.
const (
	segFile   = "seg-000000.jsonl"
	indexFile = "segments.idx"
)

// templateWalk is walk i of a template store.
func templateWalk(i int) *crawler.Walk {
	return &crawler.Walk{Index: i, Seeder: fmt.Sprintf("site-%04d.example", i)}
}

// storeTemplate writes a store of n template walks, finalized (every
// segment sealed) or closed with its records in an unsealed segment,
// and returns its files by name.
func storeTemplate(tb testing.TB, n int, finalize bool) map[string][]byte {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "run.crumbs")
	st, err := runstore.Create(dir, runstore.Manifest{Header: runstore.Header{Seed: 42}})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		if err := st.Append(templateWalk(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if finalize {
		if err := st.Finalize(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return readDir(tb, dir)
}

// readDir returns the files of dir by name.
func readDir(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := make(map[string][]byte, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[de.Name()] = b
	}
	return files
}

// verifiedPayloads returns the payload of every line of data whose
// frame checksum and length match it, wherever the line sits.
func verifiedPayloads(data []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) < framePrefixLen || line[0] != '!' || line[9] != '!' || line[18] != '!' {
			continue
		}
		sum, serr := strconv.ParseUint(string(line[1:9]), 16, 32)
		size, lerr := strconv.ParseUint(string(line[10:18]), 16, 32)
		payload := line[framePrefixLen:]
		if serr == nil && lerr == nil && uint32(sum) == crc32.ChecksumIEEE(payload) && int(size) == len(payload) {
			out = append(out, payload)
		}
	}
	return out
}

// verifiedWalks returns the walks of the walk records that verifying
// lines of data hold.
func verifiedWalks(data []byte) []*crawler.Walk {
	var out []*crawler.Walk
	for _, payload := range verifiedPayloads(data) {
		var rec struct {
			Walk *crawler.Walk `json:"walk"`
		}
		if json.Unmarshal(payload, &rec) == nil && rec.Walk != nil {
			out = append(out, rec.Walk)
		}
	}
	return out
}

// listedIndices returns the walk indices that verifying index lines of
// data list.
func listedIndices(data []byte) map[int]bool {
	listed := map[int]bool{}
	for _, payload := range verifiedPayloads(data) {
		var e struct {
			Indices []int `json:"indices"`
		}
		if json.Unmarshal(payload, &e) == nil {
			for _, i := range e.Indices {
				listed[i] = true
			}
		}
	}
	return listed
}
