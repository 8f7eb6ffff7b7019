package runstore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/runstore"
)

// crawlRecords crawls a small faulty world into a run store — retries,
// a request deadline, latency spikes and a crawl cancelled part-way —
// and returns the raw walk records the store holds. Two kinds of record
// no crawl logs are added, encoded as encodeWalk encodes any walk: one
// per walk the cancellation left unstarted, marked Skipped as the
// crawler marks it, and a copy of the first walk whose snapshots hold
// localStorage, which the synthetic web never writes.
var crawlRecords = sync.OnceValues(func() ([][]byte, error) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 24
	cfg.Parallelism = 2
	cfg.World.ConnectFailRate = 0.15
	cfg.World.TransientFailRate = 0.25
	cfg.World.HTTPDegradeRate = 0.15
	cfg.World.LatencySpikeRate = 0.2
	cfg.Retry = crumbcruncher.DefaultRetryPolicy()
	cfg.RequestDeadline = 2 * time.Second

	dir, err := os.MkdirTemp("", "walkcodec")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.crumbs")
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(st),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= cfg.Walks-6 {
				cancel()
			}
		})).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("cancelled crawl returned %v", err)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Fewer walks than a segment holds: every record is in the active
	// segment, in completion order.
	lf, records, err := runstore.OpenLineFile(filepath.Join(path, "seg-000000.jsonl"), runstore.Header{Format: runstore.SegmentFormat, Version: 1})
	if err != nil {
		return nil, err
	}
	lf.Close()
	logged := map[int]bool{}
	first := -1
	for _, raw := range records {
		var rec runstore.WalkRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, err
		}
		logged[rec.Index] = true
		if first < 0 {
			first = rec.Index
		}
	}
	var added []*crawler.Walk
	for i := 0; i < cfg.Walks; i++ {
		if !logged[i] {
			added = append(added, &crawler.Walk{Index: i, Seeder: fmt.Sprintf("seeder-%d.example", i), Skipped: true})
		}
	}
	local, err := runstore.DecodeWalk(records[0], first)
	if err != nil {
		return nil, err
	}
	local.Index = cfg.Walks
	for _, cs := range local.SeedLoad {
		cs.After.Local = map[string]string{"_uid": "a1b2", "k<&>\u2028\"": "v\t\u00e9\U0001F600"}
	}
	added = append(added, local)
	for _, w := range added {
		raw, err := runstore.EncodeWalk(w)
		if err != nil {
			return nil, err
		}
		records = append(records, raw)
	}
	return records, nil
})

// referenceDecode is decodeWalk as it reads with encoding/json alone.
func referenceDecode(raw []byte, idx int) (*crawler.Walk, error) {
	var rec runstore.WalkRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("runstore: decode walk record: %w", err)
	}
	if rec.Index != idx {
		return nil, fmt.Errorf("runstore: %w: record for walk %d holds walk %d", runstore.ErrCorrupt, idx, rec.Index)
	}
	if rec.Walk == nil {
		return nil, fmt.Errorf("runstore: walk record %d has no walk", rec.Index)
	}
	return rec.Walk, nil
}

// sameDecode checks that decodeWalk gives raw the value, or the error
// message, encoding/json gives it.
func sameDecode(t *testing.T, raw []byte, idx int) {
	t.Helper()
	want, werr := referenceDecode(raw, idx)
	got, gerr := runstore.DecodeWalk(raw, idx)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("decodeWalk error %v, encoding/json error %v", gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("decodeWalk error %q, encoding/json error %q", gerr, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decodeWalk and encoding/json disagree:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeWalkMatchesJSON decodes every record of a faulty,
// cancelled crawl on the fast path, deep-equal to encoding/json's
// result, and checks that the records cover every optional part of a
// walk.
func TestDecodeWalkMatchesJSON(t *testing.T) {
	records, err := crawlRecords()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, raw := range records {
		got, ok := runstore.DecodeWalkRecord(raw)
		if !ok {
			t.Fatalf("fast path refused a stored record: %.200s", raw)
		}
		var want runstore.WalkRecord
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("walk %d: fast path and encoding/json disagree", want.Index)
		}
		sameDecode(t, raw, want.Index)
		cover(seen, want)
	}
	for _, part := range []string{"Err", "Degraded", "Ended", "Skipped", "SeedLoad", "Local", "Expires", "Escape"} {
		if !seen[part] {
			t.Errorf("no stored record holds %s", part)
		}
	}
}

// cover marks which optional parts of a walk record rec holds.
func cover(seen map[string]bool, rec runstore.WalkRecord) {
	w := rec.Walk
	seen["Degraded"] = seen["Degraded"] || w.Degraded != ""
	seen["Ended"] = seen["Ended"] || w.Ended != ""
	seen["Skipped"] = seen["Skipped"] || w.Skipped
	seen["SeedLoad"] = seen["SeedLoad"] || len(w.SeedLoad) > 0
	visit := func(cs *crawler.CrawlerStep) {
		for _, snap := range []crawler.Snapshot{cs.Before, cs.After} {
			seen["Local"] = seen["Local"] || len(snap.Local) > 0
			for _, c := range snap.Cookies {
				seen["Expires"] = seen["Expires"] || !c.Expires.IsZero()
			}
		}
		for _, r := range cs.Requests {
			seen["Err"] = seen["Err"] || r.Err != ""
			seen["Escape"] = seen["Escape"] || strings.Contains(r.URL, "&")
		}
	}
	for _, cs := range w.SeedLoad {
		visit(cs)
	}
	for _, s := range w.Steps {
		for _, cs := range s.Records {
			visit(cs)
		}
	}
}

// TestDecodeWalkFallback feeds decodeWalk one input per fallback
// trigger: the fast path must refuse it, and decodeWalk must return
// what encoding/json returns, the same value or the same error.
func TestDecodeWalkFallback(t *testing.T) {
	const walk = `"walk":{"index":3,"seeder":"a.example","steps":[]}`
	cases := []struct{ name, raw string }{
		{"key-case", `{"Index":3,` + walk + `}`},
		{"unknown-key", `{"index":3,"extra":[1,{}],` + walk + `}`},
		{"repeated-key", `{"index":3,"index":3,` + walk + `}`},
		{"fraction", `{"index":3.0,` + walk + `}`},
		{"exponent", `{"index":3e0,` + walk + `}`},
		{"leading-zero", `{"index":03,` + walk + `}`},
		{"plus", `{"index":+3,` + walk + `}`},
		{"overflow", `{"index":9223372036854775808,` + walk + `}`},
		{"lone-surrogate", `{"index":3,"walk":{"index":3,"seeder":"a\ud800.example"}}`},
		{"invalid-utf8", "{\"index\":3,\"walk\":{\"index\":3,\"seeder\":\"a\xff.example\"}}"},
		{"trailing-bytes", `{"index":3,` + walk + `} x`},
		{"bad-time", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"requests":[{"Time":"yesterday"}]}}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			if _, ok := runstore.DecodeWalkRecord(raw); ok {
				t.Fatalf("fast path accepted %s", raw)
			}
			sameDecode(t, raw, 3)
		})
	}
}

// TestDecodeWalkNonCanonical feeds the fast path JSON that encodeWalk
// never writes but encoding/json decodes without error: it must accept
// each input and agree with encoding/json on the value.
func TestDecodeWalkNonCanonical(t *testing.T) {
	cases := []struct{ name, raw string }{
		{"white-space", " {\t\"index\" : 3 ,\n\"walk\":{ \"index\":3 , \"steps\" : [ null , {} ] }\r} \n"},
		{"nulls", `{"index":3,"clock":null,"walk":{"index":3,"seeder":null,"steps":null,"seed_load":{"a":null},"skipped":null}}`},
		{"empty", `{"index":3,"walk":{"index":3,"steps":[],"seed_load":{},"ended":""}}`},
		{"null-structs", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"before":null,"clicked":null,"nav_chain":[null],"requests":[{"Time":null}]}}}}`},
		{"surrogate-pair", `{"index":3,"walk":{"index":3,"seeder":"\ud83d\ude00\u00e9\/\b\f\n\r\t"}}`},
		{"repeated-map-key", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"crawler":"x"},"a":{"profile":"y"}}}}`},
		{"negative", `{"index":-9223372036854775808,"walk":{"index":-0}}`},
		{"element", `{"index":3,"walk":{"index":3,"steps":[{"records":{"a":{"clicked":{"attr_names":[],"box":{"X":-1,"H":2},"cross_domain":false}}}}]}}`},
		{"null-record", `null`},
		// Records written before walks had their own clocks carry one;
		// nothing decodes it, so any string is skipped.
		{"clock", `{"index":3,"clock":"2022-03-01T00:10:00Z","walk":{"index":3,"seeder":"a.example"}}`},
		{"clock-unparsed", `{"walk":{"index":3},"clock":"yesterday","index":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			got, ok := runstore.DecodeWalkRecord(raw)
			if !ok {
				t.Fatalf("fast path refused %s", raw)
			}
			var want runstore.WalkRecord
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path and encoding/json disagree:\n got %+v\nwant %+v", got, want)
			}
			sameDecode(t, raw, want.Index)
		})
	}
}

// addRecordSeeds seeds a walk-record fuzz target with the crawl's
// records and each record damaged the ways TestSegmentDamageMatrix
// damages a segment: truncated, a bit flipped, and replaced by a
// foreign payload.
func addRecordSeeds(f *testing.F) {
	records, err := crawlRecords()
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range records {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		flipped := bytes.Clone(raw)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(`{"not":"valid"}`))
}

// FuzzDecodeWalk checks that whenever the fast path decodes an input,
// encoding/json decodes it too, to a deep-equal value, and that
// decodeWalk matches encoding/json on every input.
func FuzzDecodeWalk(f *testing.F) {
	addRecordSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := runstore.DecodeWalkRecord(raw)
		var want runstore.WalkRecord
		err := json.Unmarshal(raw, &want)
		if ok && err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v)", err)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path and encoding/json disagree:\n got %+v\nwant %+v", got, want)
		}
		sameDecode(t, raw, want.Index)
	})
}

// sameEncode checks that the fast encoder writes w's record on its fast
// path, byte-equal to json.Marshal, and that encodeWalk returns those
// bytes.
func sameEncode(t *testing.T, w *crawler.Walk) []byte {
	t.Helper()
	rec := runstore.WalkRecord{Index: w.Index, Walk: w}
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := runstore.EncodeWalkRecord(nil, rec)
	if !ok {
		t.Fatalf("fast encoder refused a record json.Marshal writes: %.200s", want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fast encoder and json.Marshal disagree:\n got %.400s\nwant %.400s", got, want)
	}
	if enc, err := runstore.EncodeWalk(w); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("encodeWalk = %.200s, %v; want json.Marshal's bytes", enc, err)
	}
	return got
}

// fullWalk returns a walk with every field of every type set, its
// strings and times taken from s and tm, its ints from n.
func fullWalk(s string, tm time.Time, n int) *crawler.Walk {
	cs := &crawler.CrawlerStep{
		Crawler: s, Profile: s, StartURL: s, ClickIndex: n,
		Before: crawler.Snapshot{URL: s,
			Cookies: []crawler.CookieRecord{{Name: s, Value: s, Domain: s, Created: tm, Expires: tm}},
			Local:   map[string]string{s: s, "k": s}},
		Clicked: &crawler.Element{Index: n, Kind: s, Href: s, AttrNames: []string{s, "id"},
			Box: dom.Rect{X: n, Y: -n, W: n, H: 1}, XPath: s, CrossDomain: true},
		NavChain:  []browser.Hop{{URL: s, Status: n, Location: s}},
		Requests:  []browser.RequestRecord{{URL: s, Kind: browser.RequestKind(s), Referer: s, Status: n, Err: s, Attempt: n, Time: tm}},
		LandedURL: s,
		After:     crawler.Snapshot{URL: s},
		Fail:      s,
	}
	return &crawler.Walk{
		Index: n, Seeder: s,
		Steps:    []*crawler.Step{{Walk: n, Index: n, Outcome: crawler.StepOutcome(s), Records: map[string]*crawler.CrawlerStep{s: cs, "safari1": cs}}},
		SeedLoad: map[string]*crawler.CrawlerStep{s: cs},
		Ended:    crawler.StepOutcome(s), Degraded: s, Skipped: true,
	}
}

// TestEncodeWalkMatchesJSON encodes every record of a faulty, cancelled
// crawl on the fast path, byte-equal to json.Marshal and to the stored
// record, and then one walk per corner of json.Marshal's output: HTML
// and line-separator escapes, invalid UTF-8, every control byte, nil
// and empty slices and maps, zero and zoned times, extreme ints and
// key order; and one per time json.Marshal refuses, which must fail
// with json.Marshal's error.
func TestEncodeWalkMatchesJSON(t *testing.T) {
	records, err := crawlRecords()
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range records {
		var rec runstore.WalkRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if got := sameEncode(t, rec.Walk); !bytes.Equal(got, raw) {
			t.Fatalf("walk %d: re-encoding changed the stored record", rec.Index)
		}
	}

	var controls []byte
	for c := 0; c < 0x20; c++ {
		controls = append(controls, byte(c))
	}
	controls = append(controls, 0x7f)
	tm := time.Date(2022, 3, 1, 0, 10, 0, 123456789, time.UTC)
	zoned := time.Date(2022, 3, 1, 23, 59, 59, 5000, time.FixedZone("", -(7*3600+30*60)))
	many := map[string]string{}
	for i := 0; i < 20; i++ {
		many[fmt.Sprintf("k%d", 19-i)] = fmt.Sprint(i)
	}
	rows := []struct {
		name string
		walk *crawler.Walk
	}{
		{"html", fullWalk("https://a.example/<p>?x=1&y=>", tm, 3)},
		{"line-separators", fullWalk("a\u2028b\u2029c", tm, 3)},
		{"invalid-utf8", fullWalk("a\xffb\xc3(\xe2\x82\xed\xa0\x80z\xf0", tm, 3)},
		{"control-bytes", fullWalk(string(controls), tm, 3)},
		{"quotes-and-unicode", fullWalk(`"\/`+"\u00e9\U0001F600\ufffd", tm, 3)},
		{"empty-strings", fullWalk("", tm, 0)},
		{"zero-time", fullWalk("x", time.Time{}, 3)},
		{"zoned-time", fullWalk("x", zoned, 3)},
		{"second-offset", fullWalk("x", time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", 5*3600+30*60+15)), 3)},
		{"year-9999", fullWalk("x", time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), 3)},
		{"local-time", fullWalk("x", time.Date(2022, 3, 1, 0, 0, 0, 0, time.Local), 3)},
		{"min-int", fullWalk("x", tm, math.MinInt64)},
		{"max-int", fullWalk("x", tm, math.MaxInt64)},
		{"nil-slices-maps", &crawler.Walk{Index: 1, Steps: []*crawler.Step{nil, {Walk: 1}}}},
		{"nil-walk-steps", &crawler.Walk{Index: 1}},
		{"empty-slices-maps", &crawler.Walk{Index: 1, Steps: []*crawler.Step{}, SeedLoad: map[string]*crawler.CrawlerStep{}}},
		{"empty-nested", &crawler.Walk{Index: 1, Steps: []*crawler.Step{{Records: map[string]*crawler.CrawlerStep{"a": nil, "b": {
			Before:   crawler.Snapshot{Cookies: []crawler.CookieRecord{}, Local: map[string]string{}},
			Clicked:  &crawler.Element{AttrNames: []string{}},
			NavChain: []browser.Hop{}, Requests: []browser.RequestRecord{},
		}}}}}},
		{"nil-map-values", &crawler.Walk{Index: 1, SeedLoad: map[string]*crawler.CrawlerStep{"z": nil, "a": {}}}},
		{"key-order", &crawler.Walk{Index: 1, SeedLoad: map[string]*crawler.CrawlerStep{
			"b": {}, "a": {}, "A": {}, "aa": {}, "": {}, "\u00e9": {}, "<": {}, "\xff": {}, "~": {}, "_": {},
		}, Steps: []*crawler.Step{{Records: map[string]*crawler.CrawlerStep{"x": {After: crawler.Snapshot{Local: many}}}}}}},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) { sameEncode(t, tc.walk) })
	}

	// Times json.Marshal refuses: the fast encoder must report false,
	// and encodeWalk must return json.Marshal's error, wrapped as ever.
	for _, tc := range []struct {
		name string
		tm   time.Time
	}{
		{"refused/year-10000", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{"refused/year-minus-1", time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{"refused/offset-24h", time.Date(2022, 3, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		{"refused/offset-100h", time.Date(2022, 3, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := fullWalk("x", tm, 3)
			w.Steps[0].Records["safari1"].Requests[0].Time = tc.tm
			rec := runstore.WalkRecord{Index: w.Index, Walk: w}
			if _, ok := runstore.EncodeWalkRecord(nil, rec); ok {
				t.Fatal("fast encoder accepted a time json.Marshal refuses")
			}
			_, jerr := json.Marshal(rec)
			if jerr == nil {
				t.Fatal("json.Marshal accepted the time")
			}
			_, err := runstore.EncodeWalk(w)
			if want := fmt.Sprintf("runstore: encode walk 3: %v", jerr); err == nil || err.Error() != want {
				t.Fatalf("encodeWalk error %v, want %q", err, want)
			}
		})
	}
}

// FuzzEncodeWalk round-trips every input encoding/json decodes into a
// walk record: the fast encoder must write json.Marshal's bytes (or
// refuse what json.Marshal refuses), and the fast decoder must take
// those bytes back to the input as encoding/json round-trips it (an
// empty omitempty slice or map reads back nil, a zero-offset time reads
// back in UTC).
func FuzzEncodeWalk(f *testing.F) {
	addRecordSeeds(f)
	// A small record too, whose strings, keys and times the fuzzer can
	// reach in a few mutations.
	f.Add([]byte(`{"index":1,"walk":{"index":1,"seeder":"a\u003c\u2028\ufffd\u0001\t","steps":[null,{"records":{"b":{"before":{"cookies":[{"expires":"2022-03-01T00:10:00.5+05:30"}],"local":{"k":"v"}},"clicked":{"attr_names":[]},"requests":[{"Time":"0001-01-01T00:00:00Z"}]},"a":null}}],"seed_load":{},"skipped":true}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in runstore.WalkRecord
		if json.Unmarshal(raw, &in) != nil {
			return
		}
		want, jerr := json.Marshal(in)
		got, ok := runstore.EncodeWalkRecord(nil, in)
		if jerr != nil {
			if ok {
				t.Fatalf("fast encoder accepted what json.Marshal refuses (%v)", jerr)
			}
			return
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("fast encoder (ok=%v) and json.Marshal disagree:\n got %.400s\nwant %.400s", ok, got, want)
		}
		back, ok := runstore.DecodeWalkRecord(got)
		if !ok {
			t.Fatalf("fast decoder refused the encoder's bytes: %.400s", got)
		}
		var norm runstore.WalkRecord
		if err := json.Unmarshal(want, &norm); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, norm) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, norm)
		}
	})
}

// TestConcurrentAppend appends the crawl's walks to one store from 8
// goroutines, each a disjoint share, with 4-walk segments sealing as
// they go: every walk's stored record, and the record Get's walk
// encodes to, must be byte-equal to a serial store's, before and after
// Finalize.
func TestConcurrentAppend(t *testing.T) {
	records, err := crawlRecords()
	if err != nil {
		t.Fatal(err)
	}
	var walks []*crawler.Walk
	for _, raw := range records {
		var rec runstore.WalkRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		walks = append(walks, rec.Walk)
	}
	dir := t.TempDir()
	create := func(name string) runstore.Store {
		st, err := runstore.Create(filepath.Join(dir, name), runstore.Manifest{Header: runstore.Header{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		runstore.SetSegWalks(st, 4)
		t.Cleanup(func() { st.Close() })
		return st
	}
	serial := create("serial.crumbs")
	for _, w := range walks {
		if err := serial.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	conc := create("concurrent.crumbs")
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(walks) && errs[g] == nil; k += workers {
				errs[g] = conc.Append(walks[k])
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		if conc.Walks() != len(walks) {
			t.Fatalf("%s: store holds %d walks, want %d", stage, conc.Walks(), len(walks))
		}
		for _, w := range walks {
			want, err := runstore.RawRecord(serial, w.Index)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runstore.RawRecord(conc, w.Index)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: walk %d: stored record differs from the serial store's (%v)", stage, w.Index, err)
			}
			read, err := conc.Get(w.Index)
			if err != nil {
				t.Fatal(err)
			}
			if enc, err := runstore.EncodeWalk(read); err != nil || !bytes.Equal(enc, want) {
				t.Fatalf("%s: walk %d: Get's walk encodes to another record (%v)", stage, w.Index, err)
			}
		}
	}
	check("appended")
	for _, st := range []runstore.Store{serial, conc} {
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	check("finalized")
}
