package runstore

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crumbcruncher/internal/crawler"
)

func testWalk(i int) *crawler.Walk {
	return &crawler.Walk{
		Index:  i,
		Seeder: fmt.Sprintf("site-%03d.example", i),
		Steps: []*crawler.Step{
			{Walk: i, Index: 1, Records: map[string]*crawler.CrawlerStep{
				"safari1": {LandedURL: fmt.Sprintf("http://dest-%d.example/", i)},
			}},
		},
	}
}

func testManifest(seed int64) Manifest {
	return Manifest{
		Header:   Header{Seed: seed},
		Crawlers: []string{"safari1", "safari2"},
		Config:   json.RawMessage(`{"walks":5}`),
	}
}

func drain(t *testing.T, st Store) []*crawler.Walk {
	t.Helper()
	cur := st.Iter()
	defer cur.Close()
	var out []*crawler.Walk
	for {
		w, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		out = append(out, w)
	}
}

// storeShape is one way a store lays its records out on disk.
type storeShape struct {
	name string
	path string
	// sealing makes segments small enough that the test's walks seal
	// into gzip segments as they append. Without it every record stays
	// in the active segment, a line file, until Finalize.
	sealing bool
}

// shapes returns the two record layouts every table below runs over:
// "line", all records in the active line-file segment of a store at a
// plain file-style path, and "segment", records sealed as they append
// into a ".crumbs" store.
func shapes(t *testing.T) []storeShape {
	return []storeShape{
		{name: "line", path: filepath.Join(t.TempDir(), "run.walks")},
		{name: "segment", path: filepath.Join(t.TempDir(), "run.crumbs"), sealing: true},
	}
}

// create makes a store of the given shape, sealing every segWalks walks
// when the shape seals.
func (sh storeShape) create(t *testing.T, m Manifest, segWalks int) Store {
	t.Helper()
	st, err := Create(sh.path, m)
	if err != nil {
		t.Fatal(err)
	}
	if sh.sealing {
		st.(*segmentStore).segWalks = segWalks
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	for _, sh := range shapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			st := sh.create(t, testManifest(7), 2)
			// Out-of-order appends: parallel crawls finish out of order.
			for _, i := range []int{2, 0, 4, 1, 3} {
				if err := st.Append(testWalk(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Finalize(); err != nil {
				t.Fatal(err)
			}
			if st.Walks() != 5 {
				t.Fatalf("walks = %d, want 5", st.Walks())
			}
			if err := st.Append(testWalk(9)); !errors.Is(err, ErrFinalized) {
				t.Fatalf("append after finalize: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			if fi, err := os.Stat(sh.path); err != nil || !fi.IsDir() {
				t.Fatalf("store at %s is not a directory: %v", sh.path, err)
			}
			ro, err := Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			defer ro.Close()
			m := ro.Manifest()
			if m.Seed != 7 || m.Walks != 5 || len(m.Crawlers) != 2 {
				t.Fatalf("manifest: %+v", m)
			}
			got := drain(t, ro)
			if len(got) != 5 {
				t.Fatalf("cursor walks = %d, want 5", len(got))
			}
			for i, w := range got {
				if !reflect.DeepEqual(w, testWalk(i)) {
					t.Fatalf("walk %d differs: %+v", i, w)
				}
			}
			w3, err := ro.Get(3)
			if err != nil || w3.Seeder != "site-003.example" {
				t.Fatalf("Get(3) = %+v, %v", w3, err)
			}
			if _, err := ro.Get(99); !errors.Is(err, ErrNoWalk) {
				t.Fatalf("Get(99): %v", err)
			}
		})
	}
}

func TestStoreResumeAfterClose(t *testing.T) {
	for _, sh := range shapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			st := sh.create(t, testManifest(3), 2) // segment: walks 0-1 seal, walk 2 stays active
			for i := 0; i < 3; i++ {
				if err := st.Append(testWalk(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Close without Finalize: a crash-equivalent store.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Walks() != 3 {
				t.Fatalf("resumed walks = %d, want 3", st2.Walks())
			}
			for i := 3; i < 6; i++ {
				if err := st2.Append(testWalk(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st2.Finalize(); err != nil {
				t.Fatal(err)
			}
			got := drain(t, st2)
			if len(got) != 6 {
				t.Fatalf("walks after resume = %d, want 6", len(got))
			}
			st2.Close()
		})
	}
}

// dirFiles returns the regular files of dir by name, with their bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(des))
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = string(data)
	}
	return files
}

// sameFiles fails t unless got holds exactly want's files and bytes.
func sameFiles(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	for name, data := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: %s is gone", label, name)
		} else if g != data {
			t.Errorf("%s: %s holds %d bytes, want %d", label, name, len(g), len(data))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s appeared", label, name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestOpenDoesNotWrite pins that reading a store leaves it as it was:
// Open, a scan, a Get and Close change no byte of a store whose active
// segment ends in a torn record, and create or remove no file. The
// first write makes the repair instead, so the resumed store finalizes
// to the bytes of one that never tore.
func TestOpenDoesNotWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(dir, testManifest(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(segJSONLPath(dir, 0), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteString("!0000"); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, st); len(got) != 3 {
		t.Fatalf("scanned %d walks, want 3", len(got))
	}
	if w, err := st.Get(1); err != nil || !reflect.DeepEqual(w, testWalk(1)) {
		t.Fatalf("Get(1) = %v, %v", w, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, "after reading", dirFiles(t, dir), before)

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testWalk(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := drain(t, st)
	if len(got) != 4 {
		t.Fatalf("walks after resume = %d, want 4", len(got))
	}
	for i, w := range got {
		if !reflect.DeepEqual(w, testWalk(i)) {
			t.Fatalf("walk %d changed across the resume", i)
		}
	}

	ref := filepath.Join(t.TempDir(), "ref.crumbs")
	clean, err := Create(ref, testManifest(8))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	for i := 0; i < 4; i++ {
		if err := clean.Append(testWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := clean.Finalize(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, "resumed, against a clean store", dirFiles(t, dir), dirFiles(t, ref))
}

// TestStoreStampFinalize pins the walk-log side of a store across
// reopens (from sealed segments and unsealed records alike): Stamp
// replaces the manifest's documents at Finalize, Finalized survives a
// reopen, and a walk record keeps the layout it always had.
func TestStoreStampFinalize(t *testing.T) {
	for _, sh := range shapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			st := sh.create(t, testManifest(3), 2) // segment: walks 0-3 seal, walk 4 stays active
			for _, i := range []int{3, 1, 4, 0, 2} {
				if err := st.Append(testWalk(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Finalized() {
				t.Fatal("unfinalized store reopened as finalized")
			}
			w, err := st.Get(1)
			if err != nil || !reflect.DeepEqual(w, testWalk(1)) {
				t.Fatalf("Get(1) = %+v, %v", w, err)
			}
			m := testManifest(3)
			m.Provenance = json.RawMessage(`{"config_hash":"h"}`)
			st.Stamp(m)
			if err := st.Finalize(); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st, err = Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if !st.Finalized() {
				t.Fatal("finalized store reopened as unfinalized")
			}
			if got := string(st.Manifest().Provenance); got != `{"config_hash":"h"}` {
				t.Fatalf("stamped provenance = %s", got)
			}
		})
	}

	raw, err := encodeWalk(testWalk(0))
	if err != nil {
		t.Fatal(err)
	}
	old, _ := json.Marshal(struct {
		Index int           `json:"index"`
		Walk  *crawler.Walk `json:"walk"`
	}{0, testWalk(0)})
	if !bytes.Equal(raw, old) {
		t.Fatalf("record changed layout:\n got %s\nwant %s", raw, old)
	}
}

// clockedRecord is walk i's record as stores written before walks had
// their own clocks hold it: with the crawl's virtual instant under
// "clock".
func clockedRecord(t *testing.T, i int) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(struct {
		Index int           `json:"index"`
		Clock time.Time     `json:"clock"`
		Walk  *crawler.Walk `json:"walk"`
	}{i, time.Date(2022, 3, 1, 0, i, 0, 0, time.UTC), testWalk(i)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStoreReadsClockedRecords opens stores whose walk records carry
// the "clock" key older crawls wrote, in an unsealed segment that open
// adopts. "line" reads them from that active line-file segment, then
// finalizes; "segment" finalizes first, sealing them, and reads them
// from the sealed segment. Every walk reads back intact, on the fast
// decoder.
func TestStoreReadsClockedRecords(t *testing.T) {
	const walks = 3
	for _, sh := range shapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			st, err := Create(sh.path, testManifest(4))
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			lf, _, err := OpenLineFile(segJSONLPath(sh.path, 0), segHeader(4))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < walks; i++ {
				raw := clockedRecord(t, i)
				if _, ok := decodeWalkRecord(raw); !ok {
					t.Fatalf("fast decoder refused clocked record %s", raw)
				}
				if err := lf.Append(raw); err != nil {
					t.Fatal(err)
				}
			}
			lf.Close()

			st, err = Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if sh.sealing {
				if err := st.Finalize(); err != nil {
					t.Fatal(err)
				}
			}
			got := drain(t, st)
			if len(got) != walks {
				t.Fatalf("read %d walks, want %d", len(got), walks)
			}
			for i, w := range got {
				if !reflect.DeepEqual(w, testWalk(i)) {
					t.Fatalf("walk %d = %+v", i, w)
				}
			}
			if err := st.Finalize(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSegmentSealing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "big.crumbs")
	st, err := Create(dir, testManifest(5))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 4 // tiny segments for the test
	const n = 11
	for i := 0; i < n; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	sealed, _ := filepath.Glob(filepath.Join(dir, "seg-*.sgz"))
	if len(sealed) != 3 {
		t.Fatalf("sealed segments = %d, want 3", len(sealed))
	}
	if open, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl")); len(open) != 0 {
		t.Fatalf("unsealed segments left after finalize: %v", open)
	}
	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got := drain(t, ro)
	if len(got) != n {
		t.Fatalf("walks = %d, want %d", len(got), n)
	}
	for i, w := range got {
		if w.Index != i {
			t.Fatalf("walk %d out of order: index %d", i, w.Index)
		}
	}
}

// TestOpenSingleDocumentRejected opens regular files that are not
// stores: a single-document run (one framed "crumbcruncher/run"
// document, the shape the server's GET /runs/{id} still serves) and a
// line-file store as releases before segment-only stores wrote it.
// Open names the path as not a run-store directory, and Create refuses
// the path too. A file is a caller mistake, not damage: it is neither
// quarantined nor rewritten.
func TestOpenSingleDocumentRejected(t *testing.T) {
	cases := []struct {
		name  string
		write func(path string) error
	}{
		{"single document", func(path string) error {
			doc := struct {
				Header
				Config  json.RawMessage  `json:"config"`
				Dataset *crawler.Dataset `json:"dataset"`
			}{
				Header:  Header{Format: "crumbcruncher/run", Version: 1, Seed: 21},
				Config:  json.RawMessage(`{"walks":1}`),
				Dataset: &crawler.Dataset{Seed: 21, Walks: []*crawler.Walk{testWalk(0)}},
			}
			return WriteFileAtomic(path, func(w io.Writer) error {
				return WriteDocument(w, doc)
			})
		}},
		{"line store", func(path string) error {
			// The line-file store layout: a WalksFormat header, the
			// manifest, walk records, and the finalized manifest.
			m := testManifest(21)
			m.Header = manifestHeader(21)
			lf, _, err := OpenLineFile(path, m.Header)
			if err != nil {
				return err
			}
			defer lf.Close()
			if err := lf.Append(m); err != nil {
				return err
			}
			raw, err := encodeWalk(testWalk(0))
			if err != nil {
				return err
			}
			if err := lf.Append(json.RawMessage(raw)); err != nil {
				return err
			}
			m.Walks = 1
			return lf.Append(m)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.json")
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err == nil {
				st.Close()
				t.Fatal("regular file opened as a store")
			}
			if want := path + " is not a run-store directory"; !strings.Contains(err.Error(), want) {
				t.Fatalf("Open error = %v, want it to say %q", err, want)
			}
			var dmg *DamageError
			if errors.As(err, &dmg) || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a regular file reported as damage or as missing: %v", err)
			}
			if st, err := Create(path, testManifest(21)); err == nil {
				st.Close()
				t.Fatal("Create made a store over a regular file")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("file moved: %v", err)
			}
			if string(after) != string(before) {
				t.Fatal("file rewritten by a failed Open or Create")
			}
			if _, err := os.Stat(path + ".corrupt"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("file quarantined: %v", err)
			}
		})
	}
}

// TestSegmentDamageMatrix corrupts sealed segments in every way the
// damage taxonomy distinguishes and checks each is detected — never
// silently decoded — and quarantined.
func TestSegmentDamageMatrix(t *testing.T) {
	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "dmg.crumbs")
		st, err := Create(dir, testManifest(5))
		if err != nil {
			t.Fatal(err)
		}
		st.(*segmentStore).segWalks = 4
		for i := 0; i < 8; i++ {
			if err := st.Append(testWalk(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
		st.Close()
		return dir
	}
	seg0 := func(dir string) string { return segSealedPath(dir, 0) }

	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"truncated-gzip", func(t *testing.T, path string) {
			data, _ := os.ReadFile(path)
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip-in-gzip", func(t *testing.T, path string) {
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"valid-gzip-record-dropped", func(t *testing.T, path string) {
			// Every frame verifies, but the segment holds one record
			// fewer than its index entry lists.
			rewriteSegment(t, path, func(lines [][]byte) [][]byte {
				return append(lines[:2:2], lines[3:]...) // header, walk 0, then walks 2…
			})
		}},
		{"valid-gzip-corrupt-frames", func(t *testing.T, path string) {
			// Re-gzip garbage: decompression succeeds, frame CRCs fail.
			err := WriteFileAtomic(path, func(w io.Writer) error {
				gz := gzip.NewWriter(w)
				if _, werr := gz.Write([]byte("!deadbeef!00000010!{\"not\":\"valid\"}\n")); werr != nil {
					return werr
				}
				return gz.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		// The gzip trailer's ISIZE sizes the inflate buffer. A trailer
		// claiming ~4 GiB must not allocate past the compressed size's
		// deflate ratio cap, and one understating the size must not
		// truncate the read: both fail gzip's length check at EOF.
		{"isize-claims-4GiB", func(t *testing.T, path string) { setISIZE(t, path, 0xfffffff0) }},
		{"isize-understated", func(t *testing.T, path string) { setISIZE(t, path, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.damage(t, seg0(dir))
			fi, err := os.Stat(seg0(dir))
			if err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err) // index and manifest are intact
			}
			defer st.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, gerr := st.Get(0)
			runtime.ReadMemStats(&after)
			if limit := uint64(fi.Size())*maxInflateRatio + 1<<20; after.TotalAlloc-before.TotalAlloc > limit {
				t.Errorf("reading a %d-byte segment allocated %d bytes, past the inflate cap %d",
					fi.Size(), after.TotalAlloc-before.TotalAlloc, limit)
			}
			if gerr == nil {
				t.Fatal("damaged segment decoded without error")
			}
			if !errors.Is(gerr, ErrCorrupt) {
				t.Fatalf("damage not classified corrupt: %v", gerr)
			}
			if _, serr := os.Stat(seg0(dir) + ".corrupt"); serr != nil {
				t.Fatalf("damaged segment not quarantined: %v", serr)
			}
			// Undamaged segments stay readable.
			if w, err := st.Get(5); err != nil || w.Index != 5 {
				t.Fatalf("healthy segment unreadable after quarantine: %v", err)
			}
		})
	}
}

// setISIZE overwrites the uncompressed-size field of a gzip file's
// trailer, its last four bytes.
func setISIZE(t *testing.T, path string, size uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], size)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteSegment re-gzips a sealed segment with its frame lines (the
// header first) passed through edit. Every kept frame still verifies.
func rewriteSegment(t *testing.T, path string, edit func(lines [][]byte) [][]byte) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	lines := edit(bytes.SplitAfter(data, []byte("\n")))
	err = WriteFileAtomic(path, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		if _, werr := gz.Write(bytes.Join(lines, nil)); werr != nil {
			return werr
		}
		return gz.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSegmentSwappedRecords swaps two sealed records: every frame still
// verifies and the count matches the index, but each record now sits
// where the index puts the other walk. Get must refuse both.
func TestSegmentSwappedRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "swap.crumbs")
	st, err := Create(dir, testManifest(5))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 4
	for i := 0; i < 4; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rewriteSegment(t, segSealedPath(dir, 0), func(lines [][]byte) [][]byte {
		lines[1], lines[2] = lines[2], lines[1] // walks 0 and 1
		return lines
	})

	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	for _, idx := range []int{0, 1} {
		if _, err := ro.Get(idx); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get(%d) over a swapped record = %v, want ErrCorrupt", idx, err)
		}
	}
	if w, err := ro.Get(2); err != nil || w.Index != 2 {
		t.Fatalf("Get(2) = %v, %v", w, err)
	}
}

// TestConcurrentGet fetches every walk from 8 goroutines at once, each
// in its own order, from both shapes. "line" is reopened unfinalized,
// so every walk comes from the adopted active segment. "segment" holds
// 4 walks a sealed segment, so the goroutines cross segment boundaries
// and evict from the two-slot cache while others decode. Every walk
// must come back under its own index and re-encode to the bytes that
// were appended.
func TestConcurrentGet(t *testing.T) {
	const n, readers = 37, 8
	for _, sh := range shapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			st := sh.create(t, testManifest(11), 4)
			want := make([][]byte, n)
			var err error
			for i := 0; i < n; i++ {
				idx := (i * 7) % n // out of order, as a parallel crawl appends
				w := testWalk(idx)
				if want[idx], err = json.Marshal(w); err != nil {
					t.Fatal(err)
				}
				if err := st.Append(w); err != nil {
					t.Fatal(err)
				}
			}
			if sh.sealing {
				if err := st.Finalize(); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()

			ro, err := Open(sh.path)
			if err != nil {
				t.Fatal(err)
			}
			defer ro.Close()
			var wg sync.WaitGroup
			errs := make(chan error, readers*n)
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < n; k++ {
						idx := (g*5 + k*(g+1)) % n
						if g%2 == 1 {
							idx = n - 1 - k
						}
						w, err := ro.Get(idx)
						if err != nil {
							errs <- fmt.Errorf("Get(%d): %w", idx, err)
							continue
						}
						got, err := json.Marshal(w)
						if err != nil {
							errs <- err
							continue
						}
						if w.Index != idx || !bytes.Equal(got, want[idx]) {
							errs <- fmt.Errorf("Get(%d) returned walk %d: %s", idx, w.Index, got)
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestSealedSegmentDamageVerify covers a sealed segment that is damaged
// or gone. A segment the index lists whose file is missing — as an
// earlier read's quarantine leaves it — reads as damage, not as a
// file-system error. Verify finds damage before any Get does, and moves
// the whole store aside so its path is free for a fresh store.
func TestSealedSegmentDamageVerify(t *testing.T) {
	sealedStore := func(t *testing.T) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "run.crumbs")
		st, err := Create(dir, testManifest(8))
		if err != nil {
			t.Fatal(err)
		}
		st.(*segmentStore).segWalks = 2
		for i := 0; i < 5; i++ { // segments 0 and 1 seal, walk 4 stays active
			if err := st.Append(testWalk(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing", func(t *testing.T) {
		dir := sealedStore(t)
		if err := os.Remove(segSealedPath(dir, 0)); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 2; i++ {
			_, err := st.Get(i)
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Get(%d) from a missing segment = %v, want ErrCorrupt", i, err)
			}
			if msg := err.Error(); strings.Contains(msg, "record -1") || strings.Contains(msg, "offset -1") {
				t.Errorf("damage message names unknown positions: %v", err)
			}
		}
		if w, err := st.Get(2); err != nil || !reflect.DeepEqual(w, testWalk(2)) {
			t.Fatalf("Get(2) from an intact segment = %+v, %v", w, err)
		}
	})

	t.Run("verify", func(t *testing.T) {
		dir := sealedStore(t)
		path := segSealedPath(dir, 1)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("open leaves sealed segments to their first read: %v", err)
		}
		err = Verify(st)
		var de *DamageError
		if !errors.As(err, &de) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Verify = %v, want a DamageError wrapping ErrCorrupt", err)
		}
		if de.Quarantined != dir+".corrupt" {
			t.Fatalf("store quarantined to %q, want %q", de.Quarantined, dir+".corrupt")
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("damaged store still at its path: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir+".corrupt", "seg-000001.sgz.corrupt")); err != nil {
			t.Fatalf("damaged segment not quarantined inside the store: %v", err)
		}
	})

	t.Run("intact", func(t *testing.T) {
		st, err := Open(sealedStore(t))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := Verify(st); err != nil {
			t.Fatalf("Verify on an intact store: %v", err)
		}
		if got := drain(t, st); len(got) != 5 {
			t.Fatalf("walks after Verify = %d, want 5", len(got))
		}
	})
}
