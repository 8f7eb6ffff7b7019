package runstore

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
)

// readBufCeiling bounds what a cursor pass plus a Verify over a store of
// readSegs sealed segments allocates beyond the walks it decodes, in
// inflate buffers: two, for the cache's two slots, plus the scaffolding
// of the 2 × readSegs segment loads (open file, gzip framing, the record
// list). 2.28 measured.
const readBufCeiling = 2.5

const (
	readSegs     = 8
	readSegWalks = 128
)

// bulkyWalk is a walk of about 8 KB of record, with the requests and
// cookies a crawled walk holds; its size barely depends on i, as the
// segments of a crawl differ in size by a few percent.
func bulkyWalk(i int) *crawler.Walk {
	w := testWalk(i)
	cs := w.Steps[0].Records["safari1"]
	at := time.Date(2022, 3, 1, 0, 0, i, 0, time.UTC)
	for k := 0; k < 40; k++ {
		cs.Requests = append(cs.Requests, browser.RequestRecord{
			URL:     fmt.Sprintf("http://tracker-%02d.example/px?uid=%08d&walk=%06d", k, i*k, i),
			Kind:    browser.KindBeacon,
			Referer: fmt.Sprintf("http://dest-%06d.example/", i),
			Status:  200,
			Time:    at.Add(time.Duration(k) * time.Millisecond),
		})
	}
	for k := 0; k < 8; k++ {
		cs.After.Cookies = append(cs.After.Cookies, crawler.CookieRecord{
			Name: fmt.Sprintf("_uid%d", k), Value: fmt.Sprintf("%016x", i*1000+k),
			Domain: "dest.example", Created: at, Expires: at.Add(time.Hour),
		})
	}
	return w
}

// TestReadAllocsCeiling reads a store of readSegs sealed segments with a
// cursor pass and then a Verify, and bounds what that allocates beyond
// the decoded walks at readBufCeiling inflate buffers: every segment
// after the first two inflates into the buffer of the slot it evicts.
func TestReadAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled read states at random")
	}
	path := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(path, testManifest(5))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = readSegWalks
	for i := 0; i < readSegs*readSegWalks; i++ {
		if err := st.Append(bulkyWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// What the walks themselves cost: each record decoded from a copy
	// taken beforehand, with one reused decoder, as Get decodes.
	ro, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	raws := make([][]byte, ro.Walks())
	for i := range raws {
		if raws[i], err = ro.(*segmentStore).appendRecord(nil, i); err != nil {
			t.Fatal(err)
		}
	}
	ro.Close()
	var d walkDecoder
	if _, err := decodeWalk(&d, raws[0], 0); err != nil { // grow the scratch slices
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, raw := range raws {
		if _, err := decodeWalk(&d, raw, i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	walks := after.TotalAlloc - before.TotalAlloc

	ro, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	runtime.ReadMemStats(&before)
	cur := ro.Iter()
	n := 0
	for ; ; n++ {
		if _, err := cur.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	cur.Close()
	if err := Verify(ro); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n != len(raws) {
		t.Fatalf("cursor read %d walks, want %d", n, len(raws))
	}
	buf := 0
	for _, s := range ro.(*segmentStore).cache {
		buf = max(buf, cap(s.buf))
	}
	extra := float64(after.TotalAlloc-before.TotalAlloc) - float64(walks)
	t.Logf("cursor pass + Verify over %d segments: %.0f bytes beyond the walks' %d, %.2f inflate buffers of %d bytes",
		readSegs, extra, walks, extra/float64(buf), buf)
	if extra > readBufCeiling*float64(buf) {
		t.Fatalf("cursor pass + Verify allocates %.2f inflate buffers beyond the walks, ceiling %.2f", extra/float64(buf), readBufCeiling)
	}
}

// TestGetAfterClose checks that Close drops the cached segments and
// their buffers, and that Get still serves walks afterwards, loading
// their segment afresh.
func TestGetAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(path, testManifest(6))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 4
	for i := 0; i < 10; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ro, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5} {
		if _, err := ro.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	for k, s := range ro.(*segmentStore).cache {
		if s.used != 0 || s.buf != nil || s.walks != nil {
			t.Fatalf("cache slot %d still holds segment %d (%d-byte buffer) after Close", k, s.seg, cap(s.buf))
		}
	}
	for _, i := range []int{9, 0} {
		w, err := ro.Get(i)
		if err != nil {
			t.Fatalf("Get(%d) after Close: %v", i, err)
		}
		if w.Index != i {
			t.Fatalf("Get(%d) after Close returned walk %d", i, w.Index)
		}
	}
}
